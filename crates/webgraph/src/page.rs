//! Page models: links, embedded assets, forms, redirects.

use botwall_http::Uri;

/// Identifies a page within a [`crate::Site`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// The kind of an embedded asset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssetKind {
    /// An `<img>`-style embedded image.
    Image,
    /// A `<link rel="stylesheet">` style sheet.
    Stylesheet,
    /// A `<script src>` file.
    Script,
}

/// An embedded asset referenced by a page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Asset {
    /// What kind of asset this is.
    pub kind: AssetKind,
    /// Site-relative path, e.g. `/img/photo_3.jpg`.
    pub path: String,
    /// Payload size in bytes served for the asset.
    pub size: usize,
}

/// A single page in a site's graph.
///
/// Pages are *models*, not bytes: the renderer turns one into HTML on
/// demand, and agents that behave like browsers consume the model directly
/// (mimicking a parsed DOM) while byte-level robots scan the rendered HTML.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    /// This page's identity within its site.
    pub id: PageId,
    /// Site-relative path, e.g. `/articles/page_7.html`.
    pub path: String,
    /// Visible links to other pages of the same site.
    pub links: Vec<PageId>,
    /// Embedded assets (images, CSS, scripts).
    pub assets: Vec<Asset>,
    /// Whether the page exposes a CGI form endpoint (search, login, …).
    pub cgi_endpoint: Option<String>,
    /// If set, requests for this page redirect (302) to the target page.
    pub redirect_to: Option<PageId>,
    /// Approximate HTML body size in bytes before instrumentation; the
    /// renderer pads to roughly this size so bandwidth accounting is
    /// realistic.
    pub html_size: usize,
}

impl Page {
    /// Returns the absolute URI of this page on `host`.
    pub fn uri(&self, host: &str) -> Uri {
        Uri::absolute(host, self.path.clone())
    }

    /// Returns paths of assets of a given kind.
    pub fn asset_paths(&self, kind: AssetKind) -> impl Iterator<Item = &str> {
        self.assets
            .iter()
            .filter(move |a| a.kind == kind)
            .map(|a| a.path.as_str())
    }

    /// Returns `true` if the page embeds at least one asset of `kind`.
    pub fn has_asset(&self, kind: AssetKind) -> bool {
        self.assets.iter().any(|a| a.kind == kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_page() -> Page {
        Page {
            id: PageId(3),
            path: "/articles/page_3.html".to_string(),
            links: vec![PageId(1), PageId(2)],
            assets: vec![
                Asset {
                    kind: AssetKind::Image,
                    path: "/img/3_0.jpg".to_string(),
                    size: 1200,
                },
                Asset {
                    kind: AssetKind::Stylesheet,
                    path: "/css/site.css".to_string(),
                    size: 300,
                },
            ],
            cgi_endpoint: Some("/cgi-bin/search".to_string()),
            redirect_to: None,
            html_size: 4096,
        }
    }

    #[test]
    fn uri_is_absolute_on_host() {
        let p = sample_page();
        assert_eq!(
            p.uri("www.example.com").to_string(),
            "http://www.example.com/articles/page_3.html"
        );
    }

    #[test]
    fn asset_paths_filter_by_kind() {
        let p = sample_page();
        let imgs: Vec<_> = p.asset_paths(AssetKind::Image).collect();
        assert_eq!(imgs, vec!["/img/3_0.jpg"]);
        assert!(p.has_asset(AssetKind::Stylesheet));
        assert!(!p.has_asset(AssetKind::Script));
    }
}

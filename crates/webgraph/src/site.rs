//! Site generation: a page graph plus an asset inventory.

use crate::page::{Asset, AssetKind, Page, PageId};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Tunables for generating one site.
#[derive(Debug, Clone, PartialEq)]
pub struct SiteConfig {
    /// Number of HTML pages.
    pub pages: u32,
    /// Outgoing visible links per page (min, max).
    pub links_per_page: (u32, u32),
    /// Embedded images per page (min, max).
    pub images_per_page: (u32, u32),
    /// Probability a page references the site-wide stylesheet.
    pub css_probability: f64,
    /// Probability a page references a script file.
    pub script_probability: f64,
}

/// Probability a page exposes a CGI endpoint (form/search).
const CGI_PROBABILITY: f64 = 0.15;
/// Probability a page is a redirect stub to another page.
const REDIRECT_PROBABILITY: f64 = 0.06;
/// Mean HTML body size in bytes.
const MEAN_HTML_SIZE: usize = 8 * 1024;
/// Mean image size in bytes.
const MEAN_IMAGE_SIZE: usize = 12 * 1024;

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            pages: 50,
            links_per_page: (2, 8),
            images_per_page: (0, 6),
            css_probability: 0.85,
            script_probability: 0.4,
        }
    }
}

impl SiteConfig {
    /// A tiny site for unit tests.
    pub fn tiny() -> SiteConfig {
        SiteConfig {
            pages: 6,
            links_per_page: (1, 3),
            images_per_page: (0, 2),
            ..SiteConfig::default()
        }
    }
}

/// A generated web site: host name, page graph, asset inventory.
#[derive(Debug, Clone)]
pub struct Site {
    host: String,
    pages: Vec<Page>,
    by_path: HashMap<String, PageId>,
    assets: HashMap<String, (AssetKind, usize)>,
    has_favicon: bool,
}

impl Site {
    /// Deterministically generates a site named `host` from `seed`.
    ///
    /// The graph is guaranteed connected from the home page: page `i` links
    /// to at least one page with a smaller index (except the home page), so
    /// every page is reachable by visible links alone.
    pub fn generate(host: impl Into<String>, config: &SiteConfig, seed: u64) -> Site {
        let host = host.into();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = config.pages.max(1);
        let mut pages = Vec::with_capacity(n as usize);
        let mut assets: HashMap<String, (AssetKind, usize)> = HashMap::new();
        let css_path = "/css/site.css".to_string();
        assets.insert(css_path.clone(), (AssetKind::Stylesheet, 600));
        for i in 0..n {
            let id = PageId(i);
            let path = if i == 0 {
                "/index.html".to_string()
            } else {
                format!("/pages/page_{i}.html")
            };
            // Ensure connectivity: always link back to an earlier page.
            let mut links = Vec::new();
            if i > 0 {
                links.push(PageId(rng.gen_range(0..i)));
            }
            let extra = rng.gen_range(config.links_per_page.0..=config.links_per_page.1);
            for _ in 0..extra {
                let t = rng.gen_range(0..n);
                if t != i && !links.contains(&PageId(t)) {
                    links.push(PageId(t));
                }
            }
            let mut page_assets = Vec::new();
            let n_images = rng.gen_range(config.images_per_page.0..=config.images_per_page.1);
            for j in 0..n_images {
                let p = format!("/img/{i}_{j}.jpg");
                let size = jitter(&mut rng, MEAN_IMAGE_SIZE);
                assets.insert(p.clone(), (AssetKind::Image, size));
                page_assets.push(Asset {
                    kind: AssetKind::Image,
                    path: p,
                    size,
                });
            }
            if rng.gen_bool(config.css_probability) {
                page_assets.push(Asset {
                    kind: AssetKind::Stylesheet,
                    path: css_path.clone(),
                    size: 600,
                });
            }
            if rng.gen_bool(config.script_probability) {
                let p = format!("/js/lib_{i}.js");
                let size = jitter(&mut rng, 2 * 1024);
                assets.insert(p.clone(), (AssetKind::Script, size));
                page_assets.push(Asset {
                    kind: AssetKind::Script,
                    path: p,
                    size,
                });
            }
            let cgi_endpoint = if rng.gen_bool(CGI_PROBABILITY) {
                Some(format!("/cgi-bin/handler_{i}"))
            } else {
                None
            };
            // The home page is never a redirect; stubs pick a real target.
            let redirect_to = if i > 0 && rng.gen_bool(REDIRECT_PROBABILITY) {
                Some(PageId(rng.gen_range(0..i)))
            } else {
                None
            };
            pages.push(Page {
                id,
                path,
                links,
                assets: page_assets,
                cgi_endpoint,
                redirect_to,
                html_size: jitter(&mut rng, MEAN_HTML_SIZE),
            });
        }
        // Guarantee forward reachability from the home page: every page
        // i > 0 gets an incoming link from some earlier page, so a
        // visible-link walk from home covers the whole site regardless of
        // how sparse the random links are.
        for i in 1..n {
            let from = rng.gen_range(0..i) as usize;
            if !pages[from].links.contains(&PageId(i)) {
                pages[from].links.push(PageId(i));
            }
        }
        let by_path = pages.iter().map(|p| (p.path.clone(), p.id)).collect();
        Site {
            host,
            pages,
            by_path,
            assets,
            has_favicon: true,
        }
    }

    /// The site's host name.
    pub fn host(&self) -> &str {
        &self.host
    }

    /// The home page id (always `PageId(0)`).
    pub fn home(&self) -> PageId {
        PageId(0)
    }

    /// Looks up a page by id.
    pub fn page(&self, id: PageId) -> Option<&Page> {
        self.pages.get(id.0 as usize)
    }

    /// Looks up a page by site-relative path.
    pub fn page_by_path(&self, path: &str) -> Option<&Page> {
        self.by_path.get(path).and_then(|id| self.page(*id))
    }

    /// Looks up an asset by site-relative path, returning kind and size.
    pub fn asset(&self, path: &str) -> Option<(AssetKind, usize)> {
        self.assets.get(path).copied()
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Iterates all pages.
    pub fn pages(&self) -> impl Iterator<Item = &Page> {
        self.pages.iter()
    }

    /// Returns `true` if the site serves `/favicon.ico`.
    pub fn has_favicon(&self) -> bool {
        self.has_favicon
    }
}

fn jitter<R: Rng>(rng: &mut R, mean: usize) -> usize {
    let lo = (mean / 2).max(1);
    let hi = mean * 3 / 2 + 1;
    rng.gen_range(lo..hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn generation_is_deterministic() {
        let a = Site::generate("h.example", &SiteConfig::default(), 7);
        let b = Site::generate("h.example", &SiteConfig::default(), 7);
        assert_eq!(a.page_count(), b.page_count());
        for (pa, pb) in a.pages().zip(b.pages()) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Site::generate("h", &SiteConfig::default(), 1);
        let b = Site::generate("h", &SiteConfig::default(), 2);
        let differs = a
            .pages()
            .zip(b.pages())
            .any(|(pa, pb)| pa.links != pb.links || pa.assets != pb.assets);
        assert!(differs);
    }

    #[test]
    fn all_pages_reachable_from_home() {
        let site = Site::generate("h", &SiteConfig::default(), 3);
        let mut seen: HashSet<PageId> = HashSet::new();
        let mut stack = vec![site.home()];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            let page = site.page(id).unwrap();
            // A redirect contributes its target as an implicit edge.
            if let Some(t) = page.redirect_to {
                stack.push(t);
            }
            for l in &page.links {
                stack.push(*l);
            }
        }
        // Reverse-reachability: page i links to some j < i, so walking from
        // home must reach everything.
        assert_eq!(seen.len(), site.page_count(), "unreachable pages exist");
    }

    #[test]
    fn paths_resolve_back_to_pages() {
        let site = Site::generate("h", &SiteConfig::tiny(), 5);
        for p in site.pages() {
            assert_eq!(site.page_by_path(&p.path).unwrap().id, p.id);
        }
        assert!(site.page_by_path("/nonexistent.html").is_none());
    }

    #[test]
    fn assets_are_registered() {
        let site = Site::generate("h", &SiteConfig::default(), 11);
        for p in site.pages() {
            for a in &p.assets {
                let (kind, size) = site.asset(&a.path).expect("asset registered");
                assert_eq!(kind, a.kind);
                if a.kind != AssetKind::Stylesheet {
                    assert_eq!(size, a.size);
                }
            }
        }
    }

    #[test]
    fn home_page_is_never_redirect() {
        for seed in 0..20 {
            let site = Site::generate("h", &SiteConfig::default(), seed);
            assert!(site.page(site.home()).unwrap().redirect_to.is_none());
        }
    }

    #[test]
    fn links_have_no_self_loops_or_dups() {
        let site = Site::generate("h", &SiteConfig::default(), 13);
        for p in site.pages() {
            let set: HashSet<_> = p.links.iter().collect();
            assert_eq!(set.len(), p.links.len(), "dup link on {:?}", p.id);
            assert!(!p.links.contains(&p.id), "self loop on {:?}", p.id);
        }
    }
}

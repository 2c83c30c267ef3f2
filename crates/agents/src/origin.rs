//! The webgraph origin: what the origin server of a generated [`Site`]
//! answers, behind every in-process gateway the agents run against (the
//! CoDeeN nodes, [`crate::testutil::MockWorld`], the examples; see
//! [`crate::world::Client`]).

use crate::world::PageView;
use botwall_gateway::Origin;
use botwall_http::{Request, Response, StatusCode, Uri};
use botwall_webgraph::{render, Page, Site};

/// Resolves a request against `site`, the site its host names (`None`
/// when no site has that host: a `502`), as a CoDeeN node would fetch
/// it upstream. Pages come back as [`Origin::Page`] (the gateway
/// instruments them) with what a browser sees of them beside the HTML
/// (a [`PageView`] with no manifest and no HTML yet); everything else is
/// a finished response.
pub fn resolve_origin(site: Option<&Site>, request: &Request) -> (Origin, Option<PageView>) {
    let Some(site) = site else {
        return (
            Origin::Response(Response::empty(StatusCode::BAD_GATEWAY)),
            None,
        );
    };
    let path = request.uri().path();
    if path.eq_ignore_ascii_case("/favicon.ico") {
        let resp = Response::builder(StatusCode::OK)
            .header("Content-Type", "image/x-icon")
            .body_bytes(vec![0u8; 318])
            .build();
        return (Origin::Response(resp), None);
    }
    if path.eq_ignore_ascii_case("/robots.txt") {
        let resp = Response::builder(StatusCode::OK)
            .header("Content-Type", "text/plain")
            .body_bytes(b"User-agent: *\nDisallow: /cgi-bin/\n".to_vec())
            .build();
        return (Origin::Response(resp), None);
    }
    if let Some(page) = site.page_by_path(path) {
        // Redirect stubs answer 302 (the RESPCODE 3XX % signal).
        if let Some(target) = page.redirect_to {
            if let Some(t) = site.page(target) {
                let resp = Response::builder(StatusCode::FOUND)
                    .header("Location", format!("http://{}{}", site.host(), t.path))
                    .build();
                return (Origin::Response(resp), None);
            }
        }
        return (
            Origin::Page(render::render_page(site, page)),
            Some(page_meta(site, page)),
        );
    }
    if let Some((_, body)) = render::render_asset(site, path) {
        let resp = Response::builder(StatusCode::OK)
            .header("Content-Type", "application/octet-stream")
            .body_bytes(body)
            .build();
        return (Origin::Response(resp), None);
    }
    // A known CGI endpoint answers; unknown dynamic paths 404.
    let is_known_cgi = site
        .pages()
        .filter_map(|p| p.cgi_endpoint.as_deref())
        .any(|c| path.starts_with(c));
    if is_known_cgi {
        let resp = Response::builder(StatusCode::OK)
            .header("Content-Type", "text/html")
            .body_bytes(b"<html><body>ok</body></html>".to_vec())
            .build();
        return (Origin::Response(resp), None);
    }
    (Origin::NotFound, None)
}

/// Page-graph metadata the gateway does not know about (it only sees
/// the rendered HTML): the page's visible links, embedded objects and
/// CGI endpoint, as absolute URIs.
fn page_meta(site: &Site, page: &Page) -> PageView {
    let host = site.host();
    PageView {
        links: page
            .links
            .iter()
            .filter_map(|id| site.page(*id))
            .map(|p| Uri::absolute(host, p.path.clone()))
            .collect(),
        embedded: page
            .assets
            .iter()
            .map(|a| Uri::absolute(host, a.path.clone()))
            .collect(),
        cgi: page
            .cgi_endpoint
            .as_ref()
            .map(|c| Uri::absolute(host, c.clone())),
        ..PageView::default()
    }
}

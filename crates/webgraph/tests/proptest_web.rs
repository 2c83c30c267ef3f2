//! Property tests: the renderer and the byte scanner agree.

use botwall_webgraph::{render, scan, Site, SiteConfig};
use proptest::prelude::*;

fn arb_site_config() -> impl Strategy<Value = SiteConfig> {
    (2u32..40, 0u32..4, 0u32..5, 0.0f64..1.0, 0.0f64..1.0).prop_map(
        |(pages, min_links, imgs, cssp, jsp)| SiteConfig {
            pages,
            links_per_page: (min_links, min_links + 4),
            images_per_page: (0, imgs),
            css_probability: cssp,
            script_probability: jsp,
        },
    )
}

proptest! {
    /// Every link in the page model appears in the rendered HTML, and the
    /// byte scanner recovers all of them.
    #[test]
    fn scanner_recovers_all_model_links(config in arb_site_config(), seed in 0u64..1000) {
        let site = Site::generate("prop.example", &config, seed);
        for page in site.pages().take(8) {
            let html = render::render_page(&site, page);
            let found = scan::scan_links(&html);
            for target_id in &page.links {
                let target = site.page(*target_id).unwrap();
                let url = format!("http://prop.example{}", target.path);
                prop_assert!(
                    found.contains(&url),
                    "scanner missed {url} on {}",
                    page.path
                );
            }
        }
    }

    /// The scanner finds every embedded asset the renderer emitted.
    #[test]
    fn scanner_recovers_all_assets(config in arb_site_config(), seed in 0u64..1000) {
        let site = Site::generate("prop.example", &config, seed);
        for page in site.pages().take(8) {
            let html = render::render_page(&site, page);
            let embedded = scan::scan_embedded(&html);
            for asset in &page.assets {
                let url = format!("http://prop.example{}", asset.path);
                prop_assert!(
                    embedded.contains(&url),
                    "scanner missed asset {url}"
                );
            }
        }
    }

    /// Generation is a pure function of (host, config, seed).
    #[test]
    fn generation_is_pure(config in arb_site_config(), seed in 0u64..1000) {
        let a = Site::generate("h", &config, seed);
        let b = Site::generate("h", &config, seed);
        prop_assert_eq!(a.page_count(), b.page_count());
        for (pa, pb) in a.pages().zip(b.pages()) {
            prop_assert_eq!(pa, pb);
        }
    }

    /// Every page stays reachable from the home page by following model
    /// links (plus redirect edges).
    #[test]
    fn connectivity(config in arb_site_config(), seed in 0u64..500) {
        let site = Site::generate("h", &config, seed);
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![site.home()];
        while let Some(id) = stack.pop() {
            if !seen.insert(id) { continue; }
            let p = site.page(id).unwrap();
            stack.extend(p.links.iter().copied());
            if let Some(t) = p.redirect_to { stack.push(t); }
        }
        prop_assert_eq!(seen.len(), site.page_count());
    }
}

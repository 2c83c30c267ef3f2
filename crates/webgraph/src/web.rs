//! A universe of sites addressable by host name.

use crate::site::{Site, SiteConfig};
use botwall_http::Uri;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Tunables for generating a universe of sites.
#[derive(Debug, Clone, PartialEq)]
pub struct WebConfig {
    /// Number of sites.
    pub sites: u32,
    /// Per-site configuration template.
    pub site: SiteConfig,
}

impl Default for WebConfig {
    fn default() -> Self {
        WebConfig {
            sites: 20,
            site: SiteConfig::default(),
        }
    }
}

impl WebConfig {
    /// A small universe for tests and examples.
    pub fn small() -> WebConfig {
        WebConfig {
            sites: 4,
            site: SiteConfig::tiny(),
        }
    }
}

/// A deterministic universe of generated web sites.
#[derive(Debug, Clone)]
pub struct Web {
    sites: Vec<Site>,
    by_host: HashMap<String, usize>,
}

impl Web {
    /// Generates `config.sites` sites, each with its own derived seed.
    pub fn generate(config: &WebConfig, seed: u64) -> Web {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut sites = Vec::with_capacity(config.sites as usize);
        for i in 0..config.sites {
            let host = format!("site{i}.example.com");
            // Vary page counts a little so sites are not clones.
            let mut sc = config.site.clone();
            let delta = rng.gen_range(0..=(sc.pages / 2).max(1));
            sc.pages = (sc.pages + delta).max(2);
            sites.push(Site::generate(host, &sc, seed.wrapping_add(i as u64 + 1)));
        }
        Web::from_sites(sites)
    }

    /// A universe of exactly `sites`, each addressable by its host (a
    /// later site shadows an earlier one of the same host).
    pub fn from_sites(sites: Vec<Site>) -> Web {
        let by_host = sites
            .iter()
            .enumerate()
            .map(|(i, s)| (s.host().to_string(), i))
            .collect();
        Web { sites, by_host }
    }

    /// Looks up a site by host name.
    pub fn site(&self, host: &str) -> Option<&Site> {
        self.by_host.get(host).map(|&i| &self.sites[i])
    }

    /// Looks up the site serving `uri`.
    pub fn site_for(&self, uri: &Uri) -> Option<&Site> {
        self.site(uri.host()?)
    }

    /// Iterates all sites.
    pub fn sites(&self) -> impl Iterator<Item = &Site> {
        self.sites.iter()
    }

    /// Picks a deterministic pseudo-random site for an agent to start on.
    pub fn pick_site<R: Rng>(&self, rng: &mut R) -> &Site {
        let i = rng.gen_range(0..self.sites.len());
        &self.sites[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn universe_is_deterministic() {
        let a = Web::generate(&WebConfig::small(), 99);
        let b = Web::generate(&WebConfig::small(), 99);
        assert_eq!(a.sites().count(), b.sites().count());
        for (sa, sb) in a.sites().zip(b.sites()) {
            assert_eq!(sa.host(), sb.host());
            assert_eq!(sa.page_count(), sb.page_count());
        }
    }

    #[test]
    fn hosts_resolve() {
        let w = Web::generate(&WebConfig::small(), 1);
        for s in w.sites() {
            assert_eq!(w.site(s.host()).unwrap().host(), s.host());
        }
        assert!(w.site("nosuch.example").is_none());
    }

    #[test]
    fn site_for_uri() {
        let w = Web::generate(&WebConfig::small(), 1);
        let host = w.sites().next().unwrap().host().to_string();
        let uri: Uri = format!("http://{host}/index.html").parse().unwrap();
        assert_eq!(w.site_for(&uri).unwrap().host(), host);
        let rel: Uri = "/index.html".parse().unwrap();
        assert!(w.site_for(&rel).is_none());
    }

    #[test]
    fn pick_site_is_seed_deterministic() {
        use rand_chacha::rand_core::SeedableRng;
        let w = Web::generate(&WebConfig::small(), 1);
        let mut r1 = ChaCha8Rng::seed_from_u64(5);
        let mut r2 = ChaCha8Rng::seed_from_u64(5);
        assert_eq!(w.pick_site(&mut r1).host(), w.pick_site(&mut r2).host());
    }
}

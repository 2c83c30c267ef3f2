//! The click-fraud generator: automates ad click-throughs "to boost
//! affiliate revenue" (abuse category 3). Hammers CGI endpoints with
//! forged referrers, never fetching the content the clicks supposedly
//! came from — maximal `CGI %`, zero presentation traffic.

use crate::agent::{Agent, AgentKind};
use crate::world::{ClientWorld, FetchSpec};
use botwall_http::Uri;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A click-fraud robot.
#[derive(Debug, Clone)]
pub struct ClickFraudBot {
    /// Clicks per session.
    pub clicks: u32,
    /// Delay between clicks, ms.
    pub delay_ms: u64,
}

impl Default for ClickFraudBot {
    fn default() -> Self {
        ClickFraudBot {
            clicks: 30,
            delay_ms: 400,
        }
    }
}

impl Agent for ClickFraudBot {
    fn kind(&self) -> AgentKind {
        AgentKind::ClickFraud
    }

    fn user_agent(&self) -> String {
        "Mozilla/5.0 (Macintosh; U; PPC Mac OS X; en) AppleWebKit/418 Safari/417.9.2".to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        let entry = world.entry_point();
        let host = entry.host().unwrap_or("target.example").to_string();
        // One page fetch to discover a CGI endpoint (an ad redirector).
        let out = world.fetch(FetchSpec::get(entry.clone()));
        let cgi = out
            .page
            .and_then(|v| v.cgi)
            .unwrap_or_else(|| Uri::absolute(&host, "/cgi-bin/adclick"));
        for i in 0..self.clicks {
            let clicked = format!("{cgi}?ad={}&n={i}", rng.gen_range(100..999));
            let Ok(uri) = clicked.parse::<Uri>() else {
                continue;
            };
            let fake_origin = format!("http://publisher{}.example/page.html", rng.gen_range(1..50));
            world.fetch(FetchSpec::get_with_referer(uri, fake_origin));
            world.sleep(self.delay_ms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn traffic_is_dominated_by_cgi() {
        let mut world = MockWorld::new(1);
        let mut bot = ClickFraudBot::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        bot.run_session(&mut world, &mut rng);
        assert!(world.cgi_hits >= 30);
        assert_eq!(world.css_probe_hits(), 0);
        assert_eq!(world.mouse_beacon_hits(), 0);
    }
}

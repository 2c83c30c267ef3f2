//! The vulnerability scanner: probes a dictionary of exploit paths
//! ("testing vulnerabilities in servers, CGI scripts, etc., to compromise
//! machines" — abuse category 5). Almost every request 404s, driving the
//! `RESPCODE 4XX %` feature and the §3.2 error-rate blocking threshold;
//! after the detector deployment these are the "hackers, who tried to
//! exploit new PHP or SQL vulnerabilities through CoDeeN" that remained in
//! the complaint stream.

use crate::agent::{Agent, AgentKind};
use crate::world::{ClientWorld, FetchSpec};
use botwall_http::Uri;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Exploit paths a 2006-era scanner walked.
pub const PROBE_PATHS: &[&str] = &[
    "/cgi-bin/phf",
    "/cgi-bin/formmail.pl",
    "/cgi-bin/test-cgi",
    "/cgi-bin/awstats.pl",
    "/admin.php",
    "/phpmyadmin/index.php",
    "/xmlrpc.php",
    "/horde/README",
    "/awstats/awstats.pl",
    "/cgi-bin/count.cgi",
    "/scripts/root.exe",
    "/msadc/msadcs.dll",
    "/_vti_bin/owssvr.dll",
    "/cgi-bin/webcart/webcart.cgi",
    "/login.asp",
    "/setup.php",
];

/// A vulnerability-probing robot.
#[derive(Debug, Clone)]
pub struct VulnScanner {
    /// How many probe rounds to run (each walks the dictionary once).
    pub rounds: u32,
    /// Delay between probes, ms.
    pub delay_ms: u64,
}

impl Default for VulnScanner {
    fn default() -> Self {
        VulnScanner {
            rounds: 2,
            delay_ms: 60,
        }
    }
}

impl Agent for VulnScanner {
    fn kind(&self) -> AgentKind {
        AgentKind::VulnScanner
    }

    fn user_agent(&self) -> String {
        // Scanners of the period often omitted or minimized the UA.
        "Mozilla/4.0".to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        let entry = world.entry_point();
        let host = entry.host().unwrap_or("victim.example").to_string();
        for round in 0..self.rounds {
            for path in PROBE_PATHS {
                let uri = Uri::absolute(&host, path.to_string());
                if rng.gen_bool(0.2) {
                    // Some exploits need POSTs.
                    let payload = format!("cmd=id&round={round}");
                    world.fetch(FetchSpec::post(uri, payload.into_bytes()));
                } else {
                    world.fetch(FetchSpec::get(uri));
                }
                world.sleep(self.delay_ms);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MockWorld;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn generates_an_error_storm() {
        let mut world = MockWorld::new(1);
        let mut bot = VulnScanner::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        bot.run_session(&mut world, &mut rng);
        // Non-CGI dictionary paths 404 (CGI-looking ones are absorbed by
        // the mock's CGI handler).
        assert!(world.not_found > 5, "not_found = {}", world.not_found);
        assert!(world.post_count > 0, "some exploit POSTs");
        assert_eq!(world.css_probe_hits(), 0);
    }

    #[test]
    fn probes_the_whole_dictionary() {
        let mut world = MockWorld::new(2);
        let mut bot = VulnScanner {
            rounds: 1,
            delay_ms: 0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        bot.run_session(&mut world, &mut rng);
        assert_eq!(world.client().ledger().requests, PROBE_PATHS.len() as u64);
    }
}

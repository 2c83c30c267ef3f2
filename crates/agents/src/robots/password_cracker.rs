//! The password cracker: hammers a login CGI with credential guesses
//! ("attempting to crack passwords" — the abstract's abuse list). All
//! POSTs, all to one endpoint, most rejected — high `CGI %`, high 4xx.

use crate::agent::{Agent, AgentKind};
use crate::world::{ClientWorld, FetchSpec};
use botwall_http::Uri;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// Common passwords of the era, for guess generation.
const WORDLIST: &[&str] = &[
    "123456", "password", "letmein", "qwerty", "abc123", "admin", "root", "master", "monkey",
    "dragon",
];

/// A credential-guessing robot.
#[derive(Debug, Clone)]
pub struct PasswordCracker {
    /// Guesses per session.
    pub attempts: u32,
    /// Delay between attempts, ms.
    pub delay_ms: u64,
}

impl Default for PasswordCracker {
    fn default() -> Self {
        PasswordCracker {
            attempts: 40,
            delay_ms: 150,
        }
    }
}

impl Agent for PasswordCracker {
    fn kind(&self) -> AgentKind {
        AgentKind::PasswordCracker
    }

    fn user_agent(&self) -> String {
        "Mozilla/4.0 (compatible; MSIE 6.0; Windows NT 5.0)".to_string()
    }

    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng) {
        let entry = world.entry_point();
        let host = entry.host().unwrap_or("victim.example").to_string();
        let login = Uri::absolute(&host, "/cgi-bin/login");
        for i in 0..self.attempts {
            let user = ["admin", "root", "test", "webmaster"][rng.gen_range(0..4)];
            let pass = WORDLIST[rng.gen_range(0..WORDLIST.len())];
            let body = format!("user={user}&pass={pass}&try={i}");
            world.fetch(FetchSpec::post(login.clone(), body.into_bytes()));
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
    fn all_traffic_is_cgi_posts() {
        let mut world = MockWorld::new(1);
        let mut bot = PasswordCracker::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        bot.run_session(&mut world, &mut rng);
        assert_eq!(world.post_count, 40);
        assert_eq!(world.cgi_hits, 40);
        assert_eq!(world.page_fetches, 0);
        assert_eq!(world.css_probe_hits(), 0);
    }
}

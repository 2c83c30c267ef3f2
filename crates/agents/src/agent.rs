//! The agent abstraction and ground-truth taxonomy.

use crate::world::ClientWorld;
use botwall_http::BrowserFamily;
use rand_chacha::ChaCha8Rng;

/// Ground-truth identity of a traffic source.
///
/// The robot species are the abuse categories the paper's introduction
/// enumerates: DDoS zombies, referrer spammers, click-fraud generators,
/// e-mail harvesters, and vulnerability testers — plus the benign-but-
/// robotic sources (crawlers, offline browsers) and the adversarial
/// JS-capable bot of §4.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AgentKind {
    /// A human driving the given browser family.
    Human(BrowserFamily),
    /// A blind crawler that scans HTML bytes and follows every URL.
    Crawler,
    /// A Robot-Exclusion-Protocol-compliant spider.
    PoliteSpider,
    /// An e-mail address harvester.
    EmailHarvester,
    /// A referrer spammer (forged `Referer` headers for ranking inflation).
    ReferrerSpammer,
    /// A click-fraud generator hammering ad/CGI endpoints.
    ClickFraud,
    /// A vulnerability scanner probing exploit paths.
    VulnScanner,
    /// A password-guessing bot POSTing credentials.
    PasswordCracker,
    /// An offline browser mirroring pages with all embedded content.
    OfflineBrowser,
    /// A JavaScript-executing bot (the §4.1 adversary).
    SmartBot,
    /// A DDoS zombie flooding one target.
    DdosZombie,
    /// A headless-browser imitator: runs the probe JS path and
    /// synthesizes mouse entropy, but leaks the automation-framework
    /// signals (webdriver flag, empty plugin list).
    HeadlessBrowser,
    /// A headless imitator that also patches over the automation leaks
    /// (the honest upper bound on this detector family).
    StealthHeadless,
    /// A coordinated fleet member sharing harvested probe URLs and
    /// solved CAPTCHA pairs with its peers.
    FleetBot,
    /// An LLM-driven browsing agent: human-like pacing, systematic
    /// non-human traversal, no probe execution.
    LlmAgent,
}

impl AgentKind {
    /// Whether the ground truth is human.
    pub fn is_human(self) -> bool {
        matches!(self, AgentKind::Human(_))
    }

    /// A short display name.
    pub fn name(self) -> &'static str {
        match self {
            AgentKind::Human(_) => "human",
            AgentKind::Crawler => "crawler",
            AgentKind::PoliteSpider => "polite-spider",
            AgentKind::EmailHarvester => "email-harvester",
            AgentKind::ReferrerSpammer => "referrer-spammer",
            AgentKind::ClickFraud => "click-fraud",
            AgentKind::VulnScanner => "vuln-scanner",
            AgentKind::PasswordCracker => "password-cracker",
            AgentKind::OfflineBrowser => "offline-browser",
            AgentKind::SmartBot => "smart-bot",
            AgentKind::DdosZombie => "ddos-zombie",
            AgentKind::HeadlessBrowser => "headless-browser",
            AgentKind::StealthHeadless => "stealth-headless",
            AgentKind::FleetBot => "fleet-bot",
            AgentKind::LlmAgent => "llm-agent",
        }
    }

    /// Whether sessions of this kind generate abuse that can draw
    /// complaints against the proxy (Figure 3's complaint model).
    pub fn generates_abuse(self) -> bool {
        matches!(
            self,
            AgentKind::ReferrerSpammer
                | AgentKind::ClickFraud
                | AgentKind::VulnScanner
                | AgentKind::PasswordCracker
                | AgentKind::DdosZombie
                | AgentKind::EmailHarvester
                | AgentKind::FleetBot
        )
    }
}

/// A traffic source: runs one session against a [`ClientWorld`].
pub trait Agent {
    /// Ground-truth identity.
    fn kind(&self) -> AgentKind;

    /// The User-Agent header this agent sends (may be forged).
    fn user_agent(&self) -> String;

    /// Drives one complete session.
    fn run_session(&mut self, world: &mut dyn ClientWorld, rng: &mut ChaCha8Rng);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_partitions() {
        assert!(AgentKind::Human(BrowserFamily::Firefox).is_human());
        assert!(!AgentKind::Crawler.is_human());
        assert!(AgentKind::ReferrerSpammer.generates_abuse());
        assert!(!AgentKind::Human(BrowserFamily::Opera).generates_abuse());
        assert!(!AgentKind::PoliteSpider.generates_abuse());
        assert!(!AgentKind::OfflineBrowser.generates_abuse());
    }

    #[test]
    fn names_are_distinct() {
        use std::collections::HashSet;
        let kinds = [
            AgentKind::Crawler,
            AgentKind::PoliteSpider,
            AgentKind::EmailHarvester,
            AgentKind::ReferrerSpammer,
            AgentKind::ClickFraud,
            AgentKind::VulnScanner,
            AgentKind::PasswordCracker,
            AgentKind::OfflineBrowser,
            AgentKind::SmartBot,
            AgentKind::DdosZombie,
            AgentKind::HeadlessBrowser,
            AgentKind::StealthHeadless,
            AgentKind::FleetBot,
            AgentKind::LlmAgent,
        ];
        let names: HashSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }
}

//! Protecting a single Web site (not a proxy): the paper argues the
//! techniques "can be applied both to individual Web sites and to large
//! organizations". This example puts one `Gateway` in front of one
//! generated site's webgraph origin and replays a human, a no-JS human, a
//! blind crawler, and a smart bot through it — every exchange through
//! `Gateway::handle_with`, by the adapter every in-process world uses.
//!
//! Run with `cargo run --release --example site_protection`.

use botwall::agents::robots::crawler::CrawlerConfig;
use botwall::agents::robots::smart_bot::{SmartBot, SmartBotConfig};
use botwall::agents::robots::CrawlerBot;
use botwall::agents::world::{fetch_through, ClientWorld, FetchOutcome, FetchSpec};
use botwall::agents::{Agent, BrowserProfile, HumanAgent, HumanConfig};
use botwall::captcha::Challenge;
use botwall::gateway::Gateway;
use botwall::http::request::ClientIp;
use botwall::http::{BrowserFamily, StatusCode, Uri};
use botwall::sessions::{SessionKey, SimTime};
use botwall::webgraph::{Site, SiteConfig};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One visitor of the protected site, the agent-facing world. It fetches
/// the way every in-process world does (`fetch_through`): the request
/// goes through the gateway, in front of the site's webgraph origin, and
/// the instrumentation, detection and policy all live inside the
/// gateway. The origin runs between the gateway's two critical sections
/// with no lock held, so a slow site would stall only its own request,
/// never the sessions sharing its tracker shard.
struct Visitor<'a> {
    gateway: &'a Gateway,
    site: &'a Site,
    ip: ClientIp,
    user_agent: String,
    now: SimTime,
    captcha_offered: bool,
    served: u64,
    throttled: u64,
    blocked: u64,
}

impl Visitor<'_> {
    fn key(&self) -> SessionKey {
        SessionKey::new(self.ip, self.user_agent.clone())
    }
}

impl ClientWorld for Visitor<'_> {
    fn fetch(&mut self, spec: FetchSpec) -> FetchOutcome {
        self.now += 40;
        let site = (spec.uri.host() == Some(self.site.host())).then_some(self.site);
        let client = (self.ip, self.user_agent.as_str());
        let out = fetch_through(self.gateway, site, client, &spec, self.now);
        match out.status {
            StatusCode::TOO_MANY_REQUESTS => self.throttled += 1,
            StatusCode::FORBIDDEN => self.blocked += 1,
            _ => self.served += 1,
        }
        out
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn sleep(&mut self, ms: u64) {
        self.now += ms;
    }

    fn client_ip(&self) -> ClientIp {
        self.ip
    }

    fn entry_point(&self) -> Uri {
        Uri::absolute(self.site.host(), "/index.html")
    }

    fn offer_captcha(&mut self) -> Option<Challenge> {
        if self.captcha_offered {
            return None;
        }
        self.captcha_offered = true;
        self.gateway.offer_captcha()
    }

    fn answer_captcha(&mut self, id: u64, answer: &str) -> bool {
        self.gateway
            .verify_captcha(&self.key(), id, answer, self.now)
    }
}

fn run(gateway: &Gateway, site: &Site, name: &str, agent: &mut dyn Agent, ip: u32) {
    let mut world = Visitor {
        gateway,
        site,
        ip: ClientIp::new(ip),
        user_agent: agent.user_agent(),
        now: SimTime::ZERO,
        captcha_offered: false,
        served: 0,
        throttled: 0,
        blocked: 0,
    };
    let mut rng = ChaCha8Rng::seed_from_u64(ip as u64);
    agent.run_session(&mut world, &mut rng);
    println!(
        "{:<18} served={:<4} throttled={:<3} blocked={:<3} online verdict: {:?}",
        name,
        world.served,
        world.throttled,
        world.blocked,
        gateway.verdict(&world.key()),
    );
}

fn main() {
    let config = SiteConfig {
        pages: 30,
        ..SiteConfig::default()
    };
    let site = Site::generate("www.protected.example", &config, 2006);
    let gateway = Gateway::builder().seed(42).build();

    println!("one gateway in front of http://{}/ :\n", site.host());

    let mut human = HumanAgent::new(
        BrowserProfile::standard(BrowserFamily::Firefox),
        HumanConfig {
            pages: (6, 6),
            think_time_ms: (50, 100),
            mouse_move_per_page: 0.8,
            ..HumanConfig::default()
        },
    );
    run(&gateway, &site, "human/firefox", &mut human, 1);

    let mut no_js = HumanAgent::new(
        BrowserProfile::js_disabled(BrowserFamily::Opera),
        HumanConfig {
            pages: (6, 6),
            think_time_ms: (50, 100),
            ..HumanConfig::default()
        },
    );
    run(&gateway, &site, "human/no-js", &mut no_js, 2);

    let mut crawler = CrawlerBot::new(CrawlerConfig::default());
    run(&gateway, &site, "blind crawler", &mut crawler, 3);

    let mut smart = SmartBot::new(SmartBotConfig {
        scan_beacons: true,
        ..SmartBotConfig::default()
    });
    run(&gateway, &site, "smart bot", &mut smart, 4);

    // Flush every session: the batch set-algebra pass labels them.
    println!("\nfinal labels at flush:");
    for cs in gateway.drain() {
        println!(
            "  {}  label={:?} reason={:?} ({} requests)",
            cs.session.key(),
            cs.label,
            cs.reason,
            cs.session.request_count(),
        );
    }
    let stats = gateway.stats();
    println!(
        "\ngateway stats: {} requests, {} served, {} throttled, {} blocked; \
         instrumentation {:.2}% of {} bytes",
        stats.requests,
        stats.served,
        stats.throttled,
        stats.blocked,
        stats.instrumentation_bytes as f64 * 100.0 / stats.total_bytes.max(1) as f64,
        stats.total_bytes,
    );
    println!("\nreading: the Firefox human's browser pulls its first page's images,");
    println!("stylesheet, script and probes 40 ms apart; eleven requests in under");
    println!("half a second, JS run and no mouse event yet, is a provisional robot");
    println!("over the rate threshold, so it is blocked before its mouse beacon");
    println!("lands (which still labels it Human); the no-JS human stays undecided");
    println!("online and flushes Human via the CSS term of the set algebra; crawlers");
    println!("and smart bots flush Robot (hidden links, decoys, or JS-without-mouse).");
}

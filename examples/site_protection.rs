//! Protecting a single Web site (not a proxy): the paper argues the
//! techniques "can be applied both to individual Web sites and to large
//! organizations". This example puts one `Gateway` in front of one
//! generated site's webgraph origin and replays a human, a no-JS human, a
//! blind crawler, and a smart bot through it, each a `world::Client` of
//! that gateway: the in-process client the CoDeeN simulation and the
//! agents' tests run, every exchange one `Gateway::handle_with`. The
//! origin runs between the gateway's two critical sections with no lock
//! held, so a slow site would stall only its own request, never the
//! sessions sharing its tracker shard.
//!
//! Run with `cargo run --release --example site_protection`.

use botwall::agents::robots::crawler::CrawlerConfig;
use botwall::agents::robots::smart_bot::{SmartBot, SmartBotConfig};
use botwall::agents::robots::CrawlerBot;
use botwall::agents::world::Client;
use botwall::agents::{Agent, BrowserProfile, HumanAgent, HumanConfig};
use botwall::gateway::Gateway;
use botwall::http::request::ClientIp;
use botwall::http::{BrowserFamily, Uri};
use botwall::sessions::SimTime;
use botwall::webgraph::{Site, SiteConfig, Web};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn run(gateway: &Arc<Gateway>, web: &Arc<Web>, name: &str, agent: &mut dyn Agent, ip: u32) {
    let entry = Uri::absolute(web.sites().next().expect("one site").host(), "/index.html");
    let visitor = (ClientIp::new(ip), agent.user_agent());
    let (gw, web) = (Arc::clone(gateway), Arc::clone(web));
    let mut client = Client::new(gw, web, visitor, entry, SimTime::ZERO);
    let mut rng = ChaCha8Rng::seed_from_u64(ip as u64);
    agent.run_session(&mut client, &mut rng);
    let ledger = client.ledger();
    println!(
        "{:<18} served={:<4} throttled={:<3} blocked={:<3} online verdict: {:?}",
        name,
        ledger.allowed,
        ledger.throttled,
        ledger.blocked,
        gateway.verdict(&client.key()),
    );
}

fn main() {
    let config = SiteConfig {
        pages: 30,
        ..SiteConfig::default()
    };
    let site = Site::generate("www.protected.example", &config, 2006);
    println!("one gateway in front of http://{}/ :\n", site.host());
    let web = Arc::new(Web::from_sites(vec![site]));
    let gateway = Arc::new(Gateway::builder().seed(42).build());

    let mut human = HumanAgent::new(
        BrowserProfile::standard(BrowserFamily::Firefox),
        HumanConfig {
            pages: (6, 6),
            think_time_ms: (50, 100),
            mouse_move_per_page: 0.8,
            ..HumanConfig::default()
        },
    );
    run(&gateway, &web, "human/firefox", &mut human, 1);

    let mut no_js = HumanAgent::new(
        BrowserProfile::js_disabled(BrowserFamily::Opera),
        HumanConfig {
            pages: (6, 6),
            think_time_ms: (50, 100),
            ..HumanConfig::default()
        },
    );
    run(&gateway, &web, "human/no-js", &mut no_js, 2);

    let mut crawler = CrawlerBot::new(CrawlerConfig::default());
    run(&gateway, &web, "blind crawler", &mut crawler, 3);

    let mut smart = SmartBot::new(SmartBotConfig {
        scan_beacons: true,
        ..SmartBotConfig::default()
    });
    run(&gateway, &web, "smart bot", &mut smart, 4);

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

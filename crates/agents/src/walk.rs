//! The fetch loops the species share: a species is told apart by what
//! it fetches of an instrumented page, not by how it loops, so each
//! supplies only its step to [`crawl`], [`walk`] or [`render`].

use crate::world::{ClientWorld, FetchSpec, PageView};
use botwall_http::Uri;
use botwall_instrument::ProbeManifest;
use std::collections::{HashSet, VecDeque};

/// A GET of `uri`, sent with `referer` as its `Referer` when there is one.
pub(crate) fn get(uri: Uri, referer: Option<String>) -> FetchSpec {
    FetchSpec {
        referer,
        ..FetchSpec::get(uri)
    }
}

/// A crawl's queue of URLs to fetch, each with the `Referer` to send,
/// and the URLs it has already taken.
pub(crate) struct Frontier {
    queue: VecDeque<(Uri, Option<String>)>,
    seen: HashSet<String>,
}

impl Frontier {
    /// Queues `uri`, to be fetched with `referer`.
    pub(crate) fn push(&mut self, uri: Uri, referer: Option<String>) {
        self.queue.push_back((uri, referer));
    }

    /// Marks `uri` taken; `true` the first time.
    pub(crate) fn mark(&mut self, uri: &Uri) -> bool {
        self.seen.insert(uri.to_string())
    }
}

/// A breadth-first crawl from the entry point: at most `budget` fetches,
/// each URL once, each fetch followed by a `delay_ms` sleep. Only a page
/// grows the frontier, by `expand(world, frontier, uri, page)`.
pub(crate) fn crawl(
    world: &mut dyn ClientWorld,
    budget: u32,
    delay_ms: u64,
    mut expand: impl FnMut(&mut dyn ClientWorld, &mut Frontier, &Uri, PageView),
) {
    let mut frontier = Frontier {
        queue: VecDeque::from([(world.entry_point(), None)]),
        seen: HashSet::new(),
    };
    let mut fetched = 0;
    while let Some((uri, referer)) = frontier.queue.pop_front() {
        if fetched >= budget {
            break;
        }
        if !frontier.mark(&uri) {
            continue;
        }
        let out = world.fetch(get(uri.clone(), referer));
        fetched += 1;
        world.sleep(delay_ms);
        if let Some(view) = out.page {
            expand(world, &mut frontier, &uri, view);
        }
    }
}

/// A walk from the entry point through up to `pages` pages. A fetch that
/// brings back no page costs a `backoff_ms` sleep and is retried; the
/// twelfth such fetch ends the walk. A page goes to `step(world, page_url,
/// page)`, which names the next URL or ends the walk; the next fetch
/// sends the page's URL as its `Referer`.
pub(crate) fn walk(
    world: &mut dyn ClientWorld,
    pages: u32,
    backoff_ms: u64,
    mut step: impl FnMut(&mut dyn ClientWorld, &str, PageView) -> Option<Uri>,
) {
    let (mut current, mut referer) = (world.entry_point(), None);
    let (mut visited, mut failures) = (0, 0);
    while visited < pages && failures < 12 {
        let Some(view) = world.fetch(get(current.clone(), referer.clone())).page else {
            failures += 1;
            world.sleep(backoff_ms);
            continue;
        };
        visited += 1;
        let page_url = current.to_string();
        let Some(next) = step(world, &page_url, view) else {
            break;
        };
        referer = Some(page_url);
        current = next;
    }
}

/// What a client does with a page's script.
#[derive(Clone, Copy)]
pub(crate) enum Script<'a> {
    /// Leaves it alone.
    Skip,
    /// Downloads it and never runs it.
    Download,
    /// Downloads and runs it: the agent reporter fires with this query.
    Run(&'a str),
}

/// Fetches what a client renders of the page at `page_url`: its CSS
/// probe when `css`, then its script as `script` says, each with the
/// page as `Referer`. A reporter URL that does not parse is not fetched.
pub(crate) fn render(
    world: &mut dyn ClientWorld,
    manifest: &ProbeManifest,
    page_url: &str,
    css: bool,
    script: Script<'_>,
) {
    let referred = |uri: &Uri| FetchSpec::get_with_referer(uri.clone(), page_url);
    if css {
        if let Some(probe) = &manifest.css_probe {
            world.fetch(referred(probe));
        }
    }
    if matches!(script, Script::Skip) {
        return;
    }
    if let Some(js) = &manifest.js_file {
        world.fetch(referred(js));
    }
    if let (Script::Run(query), Some(agent)) = (script, &manifest.agent_beacon) {
        if let Ok(uri) = format!("{agent}?{query}").parse() {
            world.fetch(referred(&uri));
        }
    }
}

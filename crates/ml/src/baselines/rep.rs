//! Robot Exclusion Protocol compliance checking.
//!
//! §5: "Web robots are supposed to adhere to the robot exclusion protocol,
//! which specifies easily-identified User-Agent fields, with contact
//! information. Before crawling a site, robots should also retrieve a file
//! called robots.txt … Unfortunately, this protocol is entirely advisory,
//! and malicious robots have no incentive to follow it." This baseline
//! identifies only the polite robots and necessarily misses everything
//! else — that asymmetry is what the experiments demonstrate.

use botwall_core::Label;
use botwall_http::{Request, UserAgent};

/// What the REP checker concluded about one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepVerdict {
    /// Fetched robots.txt and/or self-identified: a declared robot.
    DeclaredRobot,
    /// No REP signals: could be anything (human or impolite robot).
    Unknown,
}

/// Tracks REP signals within a session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepChecker {
    fetched_robots_txt: bool,
    declared_ua: bool,
}

impl RepChecker {
    /// Creates a checker.
    pub fn new() -> RepChecker {
        RepChecker::default()
    }

    /// Feeds one request.
    pub fn observe(&mut self, request: &Request) {
        if request.uri().path().eq_ignore_ascii_case("/robots.txt") {
            self.fetched_robots_txt = true;
        }
        if matches!(
            UserAgent::parse(request.user_agent()),
            UserAgent::DeclaredRobot(_)
        ) {
            self.declared_ua = true;
        }
    }

    /// Whether the session fetched `/robots.txt`.
    pub fn fetched_robots_txt(&self) -> bool {
        self.fetched_robots_txt
    }

    /// Whether the session declared a robot User-Agent.
    pub fn declared_ua(&self) -> bool {
        self.declared_ua
    }

    /// The REP verdict.
    pub fn verdict(&self) -> RepVerdict {
        if self.fetched_robots_txt || self.declared_ua {
            RepVerdict::DeclaredRobot
        } else {
            RepVerdict::Unknown
        }
    }

    /// Collapses the verdict to a label: unknown sessions must be presumed
    /// human (the protocol gives no evidence either way), which is exactly
    /// why REP alone cannot secure a service.
    pub fn label(&self) -> Label {
        match self.verdict() {
            RepVerdict::DeclaredRobot => Label::Robot,
            RepVerdict::Unknown => Label::Human,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use botwall_http::request::ClientIp;
    use botwall_http::Method;

    fn req(uri: &str, ua: Option<&str>) -> Request {
        let mut b = Request::builder(Method::Get, uri).client(ClientIp::new(1));
        if let Some(ua) = ua {
            b = b.header("User-Agent", ua);
        }
        b.build().unwrap()
    }

    #[test]
    fn polite_crawler_is_declared() {
        let mut c = RepChecker::new();
        c.observe(&req(
            "http://h/robots.txt",
            Some("GoodBot/1.0 (+http://g.example)"),
        ));
        assert!(c.fetched_robots_txt());
        assert!(c.declared_ua());
        assert_eq!(c.verdict(), RepVerdict::DeclaredRobot);
        assert_eq!(c.label(), Label::Robot);
    }

    #[test]
    fn robots_txt_alone_is_enough() {
        let mut c = RepChecker::new();
        c.observe(&req("http://h/ROBOTS.TXT", Some("Mozilla/5.0")));
        assert_eq!(c.verdict(), RepVerdict::DeclaredRobot);
    }

    #[test]
    fn malicious_robot_evades_rep_entirely() {
        let mut c = RepChecker::new();
        // A referrer spammer with a forged browser UA and no robots.txt.
        for i in 0..50 {
            c.observe(&req(
                &format!("http://h/page{i}.html"),
                Some("Mozilla/4.0 (compatible; MSIE 6.0)"),
            ));
        }
        assert_eq!(c.verdict(), RepVerdict::Unknown);
        assert_eq!(c.label(), Label::Human, "the advisory protocol misses it");
    }

    #[test]
    fn human_is_unknown() {
        let mut c = RepChecker::new();
        c.observe(&req("http://h/index.html", Some("Opera/8.51")));
        assert_eq!(c.verdict(), RepVerdict::Unknown);
    }
}

//! An ordered, case-insensitive HTTP header multimap.

use std::fmt;

/// An ordered multimap of HTTP headers with case-insensitive name lookup.
///
/// Insertion order is preserved because the wire codec must serialize
/// headers back in the order they were parsed (some robot fingerprints key
/// on header ordering). Lookups fold names to ASCII lowercase.
///
/// # Examples
///
/// ```
/// use botwall_http::Headers;
///
/// let mut h = Headers::new();
/// h.insert("Content-Type", "text/html");
/// h.insert("Set-Cookie", "a=1");
/// h.insert("Set-Cookie", "b=2");
/// assert_eq!(h.get("content-type"), Some("text/html"));
/// assert_eq!(h.get_all("SET-COOKIE").count(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    // Invariant: `entries[i].0` keeps the original casing for serialization;
    // lookups compare case-insensitively.
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Creates an empty header map.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Returns the number of header lines (not distinct names).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no headers are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends a header line, preserving any existing lines with the same
    /// name.
    pub fn insert(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replaces every line named `name` with a single line, or appends it if
    /// absent.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        self.remove(&name);
        self.entries.push((name, value));
    }

    /// Removes all lines named `name` (case-insensitive) and returns how
    /// many were removed.
    pub fn remove(&mut self, name: &str) -> usize {
        let before = self.entries.len();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
        before - self.entries.len()
    }

    /// Returns the first value for `name` (case-insensitive), if any.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Returns every value for `name` (case-insensitive) in insertion order.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Returns `true` if at least one line named `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// Iterates over `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Total serialized size of all header lines in bytes, including the
    /// `": "` separator and CRLF per line. Used by bandwidth accounting.
    pub fn wire_len(&self) -> usize {
        self.entries
            .iter()
            .map(|(n, v)| n.len() + 2 + v.len() + 2)
            .sum()
    }

    /// Parses the `Content-Length` header if present and well-formed.
    pub fn content_length(&self) -> Option<usize> {
        decimal(self.get("Content-Length")?.trim())
    }

    /// Whether any line named `name` lists `token`: the lines are
    /// comma-separated token lists, matched case-insensitively, as
    /// `Connection` is.
    pub fn has_token(&self, name: &str, token: &str) -> bool {
        self.get_all(name)
            .any(|value| Headers::list_has(value, token))
    }

    /// [`Headers::has_token`] over one value.
    pub fn list_has(value: &str, token: &str) -> bool {
        value
            .split(',')
            .any(|item| item.trim().eq_ignore_ascii_case(token))
    }
}

/// A `Content-Length` value: `1*DIGIT` and nothing else (`parse` alone
/// would take a sign).
pub(crate) fn decimal(value: &str) -> Option<usize> {
    let digits = !value.is_empty() && value.bytes().all(|b| b.is_ascii_digit());
    digits.then(|| value.parse().ok())?
}

impl fmt::Display for Headers {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (n, v) in self.iter() {
            writeln!(f, "{n}: {v}")?;
        }
        Ok(())
    }
}

impl<'a> FromIterator<(&'a str, &'a str)> for Headers {
    fn from_iter<T: IntoIterator<Item = (&'a str, &'a str)>>(iter: T) -> Self {
        let mut h = Headers::new();
        for (n, v) in iter {
            h.insert(n, v);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_case_insensitive() {
        let mut h = Headers::new();
        h.insert("User-Agent", "Mozilla/5.0");
        assert_eq!(h.get("user-agent"), Some("Mozilla/5.0"));
        assert_eq!(h.get("USER-AGENT"), Some("Mozilla/5.0"));
        assert!(h.contains("uSeR-aGeNt"));
        assert_eq!(h.get("Referer"), None);
    }

    #[test]
    fn insertion_order_preserved() {
        let mut h = Headers::new();
        h.insert("A", "1");
        h.insert("B", "2");
        h.insert("A", "3");
        let pairs: Vec<_> = h.iter().collect();
        assert_eq!(pairs, vec![("A", "1"), ("B", "2"), ("A", "3")]);
    }

    #[test]
    fn get_all_returns_duplicates_in_order() {
        let mut h = Headers::new();
        h.insert("Set-Cookie", "a=1");
        h.insert("Other", "x");
        h.insert("set-cookie", "b=2");
        let vals: Vec<_> = h.get_all("Set-Cookie").collect();
        assert_eq!(vals, vec!["a=1", "b=2"]);
    }

    #[test]
    fn set_replaces_all_occurrences() {
        let mut h = Headers::new();
        h.insert("Cache-Control", "private");
        h.insert("cache-control", "max-age=3600");
        h.set("Cache-Control", "no-cache, no-store");
        assert_eq!(h.get_all("cache-control").count(), 1);
        assert_eq!(h.get("Cache-Control"), Some("no-cache, no-store"));
    }

    #[test]
    fn remove_reports_count() {
        let mut h = Headers::new();
        h.insert("X", "1");
        h.insert("x", "2");
        assert_eq!(h.remove("X"), 2);
        assert_eq!(h.remove("X"), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn content_length_parsing() {
        let mut h = Headers::new();
        assert_eq!(h.content_length(), None);
        h.set("Content-Length", " 42 ");
        assert_eq!(h.content_length(), Some(42));
        h.set("Content-Length", "nope");
        assert_eq!(h.content_length(), None);
        h.set("Content-Length", "+5");
        assert_eq!(h.content_length(), None, "digits only");
    }

    #[test]
    fn token_lists_match_token_by_token() {
        let mut h = Headers::new();
        h.insert("Connection", "Keep-Alive, TE");
        assert!(h.has_token("connection", "te"));
        assert!(!h.has_token("Connection", "close"));
        h.insert("connection", " CLOSE ");
        assert!(h.has_token("Connection", "close"));
        assert!(!Headers::list_has("closed, unclose", "close"));
    }

    #[test]
    fn wire_len_counts_separators() {
        let mut h = Headers::new();
        h.insert("A", "b");
        // "A: b\r\n" = 1 + 2 + 1 + 2.
        assert_eq!(h.wire_len(), 6);
    }

    #[test]
    fn from_iterator_collects() {
        let h: Headers = [("A", "1"), ("B", "2")].into_iter().collect();
        assert_eq!(h.len(), 2);
        assert_eq!(h.get("b"), Some("2"));
    }
}

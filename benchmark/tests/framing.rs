//! The load generator's response reader against awkward deliveries.

use botwall_benchmark::client::ResponseReader;
use std::io::Read;

/// Hands out `data` at most `step` bytes per read.
struct Dribble<'a> {
    data: &'a [u8],
    step: usize,
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

const CHUNKED: &[u8] =
    b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nTransfer-Encoding: chunked\r\n\r\n\
5\r\nhello\r\n1;ext=1\r\n \r\n6\r\nworld!\r\n0\r\n\r\n";
const LENGTH: &[u8] =
    b"HTTP/1.1 403 Forbidden\r\ncontent-length: 4\r\nConnection: close\r\n\r\nnope";

#[test]
fn survives_split_heads_and_chunked_bodies_at_every_step_size() {
    for step in 1..=CHUNKED.len() {
        let mut reader = ResponseReader::default();
        let mut body = Vec::new();
        let mut firsts = 0;
        let meta = reader
            .read(
                &mut Dribble {
                    data: CHUNKED,
                    step,
                },
                &mut body,
                || firsts += 1,
            )
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(
            (meta.status, meta.chunked, meta.close),
            (200, true, false),
            "step {step}"
        );
        assert_eq!(meta.wire_bytes, CHUNKED.len());
        assert_eq!(body, b"hello world!");
        assert_eq!(firsts, 1, "the first byte is stamped once");
        assert!(!reader.has_leftover());
    }
}

#[test]
fn reads_back_to_back_responses_one_at_a_time() {
    let both = [LENGTH, CHUNKED].concat();
    for step in [1, 7, both.len()] {
        let mut src = Dribble { data: &both, step };
        let mut reader = ResponseReader::default();
        let mut body = Vec::new();
        let first = reader.read(&mut src, &mut body, || ()).unwrap();
        assert_eq!(
            (first.status, first.close, first.wire_bytes),
            (403, true, LENGTH.len())
        );
        assert_eq!(body, b"nope");
        let second = reader.read(&mut src, &mut body, || ()).unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(body, b"hello world!");
    }
}

#[test]
fn rejects_truncation_and_garbage() {
    let mut body = Vec::new();
    for bad in [
        &CHUNKED[..CHUNKED.len() - 3],
        &LENGTH[..LENGTH.len() - 1],
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nabXX",
        b"SPDY/9 nonsense\r\n\r\n",
    ] {
        let mut reader = ResponseReader::default();
        assert!(
            reader
                .read(&mut Dribble { data: bad, step: 5 }, &mut body, || ())
                .is_err(),
            "{:?}",
            String::from_utf8_lossy(bad)
        );
    }
}

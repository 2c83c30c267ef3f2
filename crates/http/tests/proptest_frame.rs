//! Property tests for the framing half of the codec: nothing a peer can
//! send, however it is split across reads, panics the head scanner or
//! the body walker, and reading more of one input never changes an
//! answer already given. CI runs these again in release with
//! `PROPTEST_CASES` raised.

mod messages {
    include!("support/messages.rs");
}

use botwall_http::frame::{measure, response_head, BodyDecoder, BodyFraming, Framing};
use proptest::collection::vec;
use proptest::prelude::*;

/// Everything one walk of a body reports: what came out, whether the
/// body ended, or that it was garbage.
fn walk(framing: BodyFraming, raw: &[u8], ends: &[usize]) -> Result<(Vec<u8>, bool), ()> {
    let mut decoder = BodyDecoder::new(framing);
    let (mut buf, mut out, mut done, mut from) = (Vec::new(), Vec::new(), false, 0);
    for &end in ends {
        buf.extend_from_slice(&raw[from..end]);
        from = end;
        done = decoder.push(&mut buf, &mut out).map_err(drop)?;
    }
    Ok((out, done))
}

proptest! {
    /// Arbitrary bytes under arbitrary splits: `measure` and
    /// `response_head` answer every prefix without panicking, and the
    /// body walker fed the pieces comes to what it makes of the whole.
    #[test]
    fn no_input_and_no_split_panics_the_codec(
        raw in messages::message(),
        steps in vec(1usize..48, 0..8),
        declared in 0usize..40,
    ) {
        let ends = messages::cuts(raw.len(), &steps);
        for &end in &ends {
            let _ = measure(&raw[..end]);
            let _ = response_head(&raw[..end]);
        }
        // Bodies start wherever a head might have ended, or nowhere.
        let body = raw.windows(4).position(|w| w == b"\r\n\r\n").map_or(0, |at| at + 4);
        let body = &raw[body..];
        let ends = messages::cuts(body.len(), &steps);
        for framing in [BodyFraming::Length(declared), BodyFraming::Chunked, BodyFraming::Close] {
            let whole = walk(framing, body, &[body.len()]);
            prop_assert_eq!(walk(framing, body, &ends), whole, "{:?} cut at {:?}", framing, ends);
        }
    }

    /// Over the growing prefixes of one input, `measure` never takes an
    /// error back and never revises a complete message.
    #[test]
    fn measure_never_changes_its_mind(raw in messages::message()) {
        let mut last = Ok(Framing::Partial);
        for end in 0..=raw.len() {
            let now = measure(&raw[..end]);
            match last {
                Err(_) => prop_assert!(now.is_err(), "Err then {:?} at {}", now, end),
                Ok(Framing::Complete { .. }) => prop_assert_eq!(&now, &last, "at {}", end),
                Ok(Framing::NeedsBody { len }) => prop_assert!(
                    now == last || now == Ok(Framing::Complete { len }),
                    "{:?} then {:?} at {}", last, now, end
                ),
                Ok(Framing::Partial) => {}
            }
            last = now;
        }
    }
}

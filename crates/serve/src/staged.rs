//! One stream step, by reference.
//!
//! Between the origin's `read` and the client's `write` a body byte is
//! not copied at all: the body decoder names the step's body runs as
//! ranges of the origin's read buffer ([`Staged::body`]), the rewriter
//! takes the step's runs in one call, hunts them where they lie and
//! names what it resolves by offset ([`Staged`] is its [`StreamSink`]),
//! and the client's write is a `writev` over those ranges with the
//! chunk framing and the injected markup (a few hundred bytes in a
//! per-worker side buffer) between them ([`write_staged`]). Only what
//! the client's socket refuses is copied, behind its backlog.

use crate::server::{WorkerCounters, STREAM_HIGH_WATER};
use botwall_gateway::StreamSink;
use std::io::{self, IoSlice, Write};
use std::ops::Range;

/// Offers the socket the unsent backlog `out[*pos..]` and, behind it,
/// the staged step in one vectored write: head, chunk framing, page
/// runs and markup are one system call, and a socket that takes it all
/// has cost no copy of a page byte. Whatever it does not take is copied
/// behind `out`, for the plain write path to carry on with (or to meet
/// the error this call met).
pub(crate) fn write_staged(
    stream: &mut impl Write,
    out: &mut Vec<u8>,
    pos: &mut usize,
    staged: &Staged,
    origin: &[u8],
    sys: &WorkerCounters,
) {
    let backlog = out.len() - *pos;
    if backlog == 0 && staged.wire.is_empty() {
        return;
    }
    // About a dozen buffers for a page that arrived in one read, offered
    // from the stack; a list past [`MAX_IOV`] is a short write like any
    // other.
    let wire = staged.wire.iter().map(|part| staged.bytes_of(part, origin));
    let mut iov = [IoSlice::new(&[]); MAX_IOV];
    let n = iov
        .iter_mut()
        .zip(std::iter::once(&out[*pos..]).chain(wire))
        .map(|(slot, bytes)| *slot = IoSlice::new(bytes))
        .count();
    sys.writes.add(1);
    let wrote = stream.write_vectored(&iov[..n]).unwrap_or_else(|e| {
        if e.kind() == io::ErrorKind::WouldBlock {
            sys.writes_blocked.add(1);
        }
        0
    });
    *pos += wrote.min(backlog);
    staged.queue(out, origin, wrote.saturating_sub(backlog));
}

/// The most buffers one vectored write offers the socket: the backlog
/// and the parts of a step behind it, which [`MAX_RUNS`] keeps to a few
/// dozen.
const MAX_IOV: usize = 64;

/// The most body runs one rewriter call is handed, and the most pieces
/// of output one step stages by reference (a page that arrives in one
/// read makes five). An origin that sends one-byte chunks makes a run a
/// byte: past the cap its runs go to the rewriter in batches, each a
/// step of its own, and a step's output is copied, as all of it once
/// was, so neither list grows whatever the origin does.
pub(crate) const MAX_RUNS: usize = 32;

/// Where a piece of a stream step's output lies: a range of the
/// origin's read buffer, or of [`Staged::side`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Part {
    origin: bool,
    start: usize,
    end: usize,
}

impl Part {
    pub(crate) fn new(origin: bool, start: usize, end: usize) -> Part {
        Part { origin, start, end }
    }

    pub(crate) fn len(&self) -> usize {
        self.end - self.start
    }
}

/// One stream step, by reference: the body runs the decoder found, the
/// rewriter's sink while they are rewritten, then the chunk-framed list
/// the client's write is built from. Per worker, reused from step to
/// step.
#[derive(Debug, Default)]
pub(crate) struct Staged {
    /// The step's body runs, as ranges of the origin's read buffer: at
    /// most [`MAX_RUNS`], handed to the rewriter in one call.
    pub(crate) body: Vec<Range<usize>>,
    /// The rewriter's output in order, unframed.
    pub(crate) runs: Vec<Part>,
    /// What goes on the wire: the same with chunk framing around it, and
    /// the rewriter's tail and the terminal chunk when the stream ends.
    pub(crate) wire: Vec<Part>,
    /// Everything that is not in the origin's read buffer: injected
    /// markup, released holds, the tail, chunk framing.
    pub(crate) side: Vec<u8>,
}

impl StreamSink for Staged {
    /// `origin` is the origin's read buffer, the one the step's runs are
    /// ranges of.
    fn run(&mut self, origin: &[u8], range: Range<usize>) {
        if self.runs.len() >= MAX_RUNS {
            return self.bytes(&origin[range]);
        }
        push_part(&mut self.runs, Part::new(true, range.start, range.end));
    }

    fn bytes(&mut self, bytes: &[u8]) {
        push_side(&mut self.runs, &mut self.side, bytes);
    }
}

impl Staged {
    pub(crate) fn clear(&mut self) {
        self.runs.clear();
        self.wire.clear();
        self.side.clear();
    }

    fn bytes_of<'a>(&'a self, part: &Part, origin: &'a [u8]) -> &'a [u8] {
        let buf = if part.origin { origin } else { &self.side };
        &buf[part.start..part.end]
    }

    /// Copies what lies past the first `skip` bytes of `wire` behind
    /// `out`.
    pub(crate) fn queue(&self, out: &mut Vec<u8>, origin: &[u8], mut skip: usize) {
        for part in &self.wire {
            let bytes = self.bytes_of(part, origin);
            let cut = skip.min(bytes.len());
            out.extend_from_slice(&bytes[cut..]);
            skip -= cut;
        }
    }
}

/// Appends `part` to `list`, growing the last entry instead when the
/// two are neighbours in the same buffer.
fn push_part(list: &mut Vec<Part>, part: Part) {
    match list.last_mut() {
        Some(last) if last.origin == part.origin && last.end == part.start => last.end = part.end,
        _ if part.len() > 0 => list.push(part),
        _ => {}
    }
}

/// Appends `bytes` to the side buffer and their place there to `list`.
pub(crate) fn push_side(list: &mut Vec<Part>, side: &mut Vec<u8>, bytes: &[u8]) {
    let start = side.len();
    side.extend_from_slice(bytes);
    push_part(list, Part::new(false, start, side.len()));
}

/// Lays `data` onto `wire` as the client is sent it: chunk-framed, or as
/// it is for a body that travels under a `Content-Length` or to the
/// close. Returns its length on the wire.
pub(crate) fn frame_body(
    chunked: bool,
    wire: &mut Vec<Part>,
    side: &mut Vec<u8>,
    data: &[Part],
) -> usize {
    if chunked {
        return chunk_frame(wire, side, data);
    }
    data.iter().for_each(|part| push_part(wire, *part));
    data.iter().map(Part::len).sum()
}

/// Chunk-frames `data` onto `wire` in pieces of at most
/// [`STREAM_HIGH_WATER`] bytes (a fast origin can land far more than
/// that in one event batch; unbounded chunk declarations are hostile to
/// any receiver with a per-chunk sanity cap). Only the framing is
/// written (to `side`); the data stays where it lies. Empty data frames
/// to nothing — a zero-size chunk would terminate the stream early.
/// Returns the framed length.
fn chunk_frame(wire: &mut Vec<Part>, side: &mut Vec<u8>, data: &[Part]) -> usize {
    let total: usize = data.iter().map(Part::len).sum();
    let framing_at = side.len();
    // Bytes of `data` not yet framed, and room left in the open piece.
    let (mut left, mut room) = (total, 0);
    for part in data {
        let mut part = *part;
        while part.len() > 0 {
            if room == 0 {
                // Close the piece before this one, declare this one.
                room = left.min(STREAM_HIGH_WATER);
                let closing = if left < total { "\r\n" } else { "" };
                let start = side.len();
                write!(side, "{closing}{room:x}\r\n").expect("a Vec takes any write");
                push_part(wire, Part::new(false, start, side.len()));
            }
            let end = part.end.min(part.start + room);
            push_part(wire, Part { end, ..part });
            room -= end - part.start;
            left -= end - part.start;
            part.start = end;
        }
    }
    if total > 0 {
        push_side(wire, side, b"\r\n");
    }
    total + side.len() - framing_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{write_available, WriteStep};

    /// A socket that takes `room` more bytes and then would block.
    struct Takes {
        room: usize,
        got: Vec<u8>,
    }

    impl Write for Takes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let before = self.got.len();
            for buf in bufs {
                let take = buf.len().min(self.room);
                self.got.extend_from_slice(&buf[..take]);
                self.room -= take;
            }
            Ok(self.got.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The encoding this file used to build in the client's write
    /// buffer before writing it: each non-empty `data` as chunks of at
    /// most [`STREAM_HIGH_WATER`] bytes.
    fn flat_chunks(data: &[u8], out: &mut Vec<u8>) {
        for piece in data.chunks(STREAM_HIGH_WATER) {
            out.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            out.extend_from_slice(piece);
            out.extend_from_slice(b"\r\n");
        }
    }

    /// Stages a clean last step the way `origin_stream_step` does: the
    /// origin buffer's `runs` (as one-run chunks) with `markup` between
    /// them, then a tail. Returns the staged step and the flat encoding
    /// it must come to on the wire.
    fn staged_step(origin: &[u8], runs: &[Range<usize>], markup: &[u8]) -> (Staged, Vec<u8>) {
        let mut staged = Staged::default();
        let mut output = Vec::new();
        for run in runs {
            // The rewriter resolves all of `origin[run]`.
            staged.run(origin, run.clone());
            staged.bytes(markup);
            output.extend_from_slice(&origin[run.clone()]);
            output.extend_from_slice(markup);
        }
        let framed = chunk_frame(&mut staged.wire, &mut staged.side, &staged.runs);
        let start = staged.side.len();
        staged.side.extend_from_slice(b"[B]</body></html>");
        let tail = [Part::new(false, start, staged.side.len())];
        chunk_frame(&mut staged.wire, &mut staged.side, &tail);
        push_side(&mut staged.wire, &mut staged.side, b"0\r\n\r\n");
        let mut flat = Vec::new();
        flat_chunks(&output, &mut flat);
        assert_eq!(framed, flat.len(), "the ledger's share of this step");
        flat_chunks(b"[B]</body></html>", &mut flat);
        flat.extend_from_slice(b"0\r\n\r\n");
        (staged, flat)
    }

    /// Cuts the vectored write short after `room` bytes and checks that
    /// what the socket took plus what is left in the backlog is the
    /// staged head followed by the flat encoding, in order, once.
    fn check_cut(staged: &Staged, origin: &[u8], flat: &[u8], room: usize) {
        let sys = WorkerCounters::default();
        let mut socket = Takes {
            room,
            got: Vec::new(),
        };
        let mut out = b"HEAD\r\n\r\n".to_vec();
        let expected = [out.as_slice(), flat].concat();
        let mut pos = 0;
        write_staged(&mut socket, &mut out, &mut pos, staged, origin, &sys);
        assert_eq!(sys.writes.get(), 1, "cut at {room}");
        assert_eq!(sys.writes_blocked.get(), u64::from(room == 0));
        assert_eq!(socket.got.len(), room.min(expected.len()), "cut at {room}");
        assert!(
            [&socket.got, &out[pos..]].concat() == expected,
            "cut at {room}"
        );
        // The pump carries on from there with plain writes: none when
        // the socket took everything, else the one that hears `EAGAIN`,
        // as after any short write.
        let step = write_available(&mut socket, &out, &mut pos, &sys);
        let whole = room >= expected.len();
        assert_eq!(matches!(step, WriteStep::Done), whole, "cut at {room}");
        assert_eq!(matches!(step, WriteStep::Blocked), !whole, "cut at {room}");
        assert_eq!(sys.writes.get(), 1 + u64::from(!whole), "cut at {room}");
    }
    #[test]
    fn a_vectored_write_cut_short_at_any_byte_leaves_the_rest_in_the_backlog() {
        let origin: Vec<u8> = (0..=255u8).cycle().take(600).collect();
        let (staged, flat) = staged_step(&origin, &[5..200, 200..201, 230..599], b"[markup]");
        for room in 0..=flat.len() + 12 {
            check_cut(&staged, &origin, &flat, room);
        }
    }

    #[test]
    fn a_step_over_the_chunk_cap_is_cut_at_the_same_boundaries() {
        // 150 KB in two runs: three chunks, the boundaries inside runs.
        let origin: Vec<u8> = (0..=250u8).cycle().take(150 * 1024 + 40).collect();
        let (staged, flat) = staged_step(&origin, &[40..100_000, 100_000..origin.len()], b"");
        let boundaries = [0, 8, STREAM_HIGH_WATER + 15, 2 * STREAM_HIGH_WATER + 30];
        for near in boundaries {
            for room in near.saturating_sub(3)..near + 24 {
                check_cut(&staged, &origin, &flat, room);
            }
        }
        for room in (0..flat.len() + 9).step_by(4093) {
            check_cut(&staged, &origin, &flat, room);
        }
    }

    #[test]
    fn a_list_past_the_vector_cap_is_a_short_write() {
        // A hundred parts, none adjacent to the next: a socket with room
        // for all of them is offered the backlog and the first
        // `MAX_IOV - 1`, and the rest waits in the backlog.
        let origin: Vec<u8> = (0..=255u8).cycle().take(300).collect();
        let mut staged = Staged::default();
        for k in 0..100 {
            push_part(&mut staged.wire, Part::new(true, 3 * k, 3 * k + 2));
        }
        let mut expected = b"HEAD".to_vec();
        staged.queue(&mut expected, &origin, 0);
        let mut socket = Takes {
            room: usize::MAX,
            got: Vec::new(),
        };
        let (mut out, mut pos) = (b"HEAD".to_vec(), 0);
        let sys = WorkerCounters::default();
        write_staged(&mut socket, &mut out, &mut pos, &staged, &origin, &sys);
        assert_eq!(socket.got.len(), 4 + 2 * (MAX_IOV - 1));
        assert!([&socket.got, &out[pos..]].concat() == expected);
    }

    #[test]
    fn a_step_of_more_runs_than_the_cap_is_copied_past_it() {
        // A hostile origin's one-byte chunks: a run a byte, six bytes
        // apart. The list of ranges stops growing at the cap and the
        // rest is copied.
        let origin: Vec<u8> = (0..=255u8).cycle().take(6 * 400).collect();
        let runs: Vec<_> = (0..400).map(|k| 6 * k + 3..6 * k + 4).collect();
        let (staged, flat) = staged_step(&origin, &runs, b"|");
        assert!(staged.runs.len() <= MAX_RUNS + 1);
        assert!(staged.wire.len() <= MAX_RUNS + 5);
        for room in 0..=flat.len() + 12 {
            check_cut(&staged, &origin, &flat, room);
        }
    }
}

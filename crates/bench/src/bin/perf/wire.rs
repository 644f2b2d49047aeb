//! The benchmark's own load generator: one pipelined loopback connection
//! with `TCP_NODELAY`, one sender thread and one receiver thread, so the
//! generator itself uses at most two of the host's cores.
//!
//! Every request line goes out in a single `write` (the `\n` included) and
//! replies are matched to requests by id, so a slow reply never blocks the
//! next send. `tps_serve::Client` is not used here: it writes the line and
//! its newline separately, which adds a delayed-ACK stall of the client's
//! own to every request.
//!
//! A run has two phases. The **open loop** sends selects on a fixed
//! schedule (`arrivals`), whatever the server's state; each request is timed
//! from when it was *due*, so a stall is charged to every request it
//! delays. The **closed loop** then keeps `depth` selects outstanding and
//! sends the next one as each reply lands. Optional `reload` ops ride the
//! same connection at their own due times through both phases.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use tps_serve::protocol::{generation_of, status_of};

/// Ids at and above this are reload ops; below it, a select's sequence
/// number. Both bases are exact in an `f64`, which is how the server's
/// JSON parser reads ids.
const RELOAD_BASE: u64 = 1 << 40;
/// Id of the closing ping that tells the receiver the sender is done.
const PING_ID: u64 = 1 << 50;
/// Longest the receiver waits for any one line before declaring the
/// server stuck.
const READ_TIMEOUT: Duration = Duration::from_secs(30);
/// Lead time before the first scheduled send, so it is not late by
/// construction.
const LEAD: Duration = Duration::from_millis(20);

/// What to send and for how long.
pub struct Plan<'a> {
    /// When each open-loop select is due, as ascending offsets from the
    /// start of the open loop.
    pub arrivals: &'a [Duration],
    /// Open-loop phase length.
    pub open: Duration,
    /// Closed-loop phase length.
    pub closed: Duration,
    /// Selects kept outstanding in the closed loop.
    pub depth: usize,
    /// When each `reload` op is due, as ascending offsets from the start
    /// of the open loop; any that fall past the closed loop are not sent.
    pub reloads: &'a [Duration],
    /// The JSON fields of select number `seq`, without braces or id, e.g.
    /// `"target":"t0","top_k":8`.
    pub body: &'a (dyn Fn(u64) -> &'a str + Sync),
    /// Whether to keep select `seq`'s full reply line for verification.
    pub keep: &'a (dyn Fn(u64) -> bool + Sync),
}

/// One select as sent.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// When it was due: its scheduled arrival in the open loop, its actual
    /// send in the closed loop.
    pub due: Instant,
    /// When the sender woke to send it.
    pub woke: Instant,
    /// When the write returned.
    pub sent: Instant,
    /// Sent during the closed loop.
    pub closed: bool,
}

/// One reply as received.
#[derive(Debug, Clone)]
pub struct Reply {
    /// When the reply's last byte was read.
    pub done: Instant,
    /// Whether the status was `ok`.
    pub ok: bool,
    /// The serving generation (ok replies only).
    pub generation: Option<u64>,
    /// The full line, when the plan asked to keep it.
    pub line: Option<String>,
}

/// Everything one run sent and received.
pub struct Report {
    /// Peak resident set (MB) when the open loop ended: set-up plus a fixed
    /// amount of served work, unlike the closed loop's, which varies with
    /// throughput.
    pub open_rss_mb: f64,
    /// Selects in send order; the index is the select's id.
    pub selects: Vec<Sent>,
    /// Reply per select, aligned with `selects` (`None`: never answered).
    pub replies: Vec<Option<Reply>>,
    /// Reload ops: (due, reply).
    pub reloads: Vec<(Instant, Option<Reply>)>,
    /// Start of the open loop (when the first select was due).
    pub open_start: Instant,
}

fn sleep_until(when: Instant) {
    loop {
        let now = Instant::now();
        if now >= when {
            return;
        }
        std::thread::sleep(when - now);
    }
}

/// Drive one run against the server at `addr` and wait for every reply.
pub fn drive(addr: &str, plan: &Plan<'_>) -> std::io::Result<Report> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    let reader = stream.try_clone()?;
    let closer = stream.try_clone()?;
    let totals = (AtomicU64::new(u64::MAX), AtomicU64::new(u64::MAX));
    let (done_tx, done_rx) = mpsc::channel::<u64>();
    std::thread::scope(|s| {
        let totals = &totals;
        let receiver = s.spawn(move || receive(reader, plan, totals, done_tx));
        let sent = send(stream, plan, totals, done_rx);
        if sent.is_err() {
            // Unblock the receiver instead of letting it wait out its
            // read timeout for replies that were never requested.
            let _ = closer.shutdown(std::net::Shutdown::Both);
        }
        let received = receiver.join().expect("receiver thread does not panic");
        let (selects, reload_dues, open_start, open_rss_mb) = sent?;
        let (mut replies, mut reload_replies) = received?;
        replies.resize(selects.len(), None);
        reload_replies.resize(reload_dues.len(), None);
        Ok(Report {
            open_rss_mb,
            selects,
            replies,
            reloads: reload_dues.into_iter().zip(reload_replies).collect(),
            open_start,
        })
    })
}

/// Selects sent, reload dues, when the open loop started, and the peak
/// RSS when it ended.
type SendLog = (Vec<Sent>, Vec<Instant>, Instant, f64);

/// The sending half: the connection plus a reused line buffer.
///
/// Nothing on the open loop's send path allocates: the sender shares the
/// process's allocator and address space with the server, and an
/// allocation that waits behind the server freeing a retired generation
/// would show up as generator lateness.
struct Sender {
    stream: TcpStream,
    line: Vec<u8>,
}

impl Sender {
    /// Write one request line in a single `write`; returns when it was
    /// handed to the kernel.
    fn write(&mut self, id: u64, fields: &str) -> std::io::Result<Instant> {
        self.line.clear();
        writeln!(self.line, "{{\"id\":{id},{fields}}}")?;
        self.stream.write_all(&self.line)?;
        Ok(Instant::now())
    }

    fn select(
        &mut self,
        plan: &Plan<'_>,
        selects: &mut Vec<Sent>,
        due: Instant,
        closed: bool,
    ) -> std::io::Result<()> {
        let seq = selects.len() as u64;
        let body = (plan.body)(seq);
        sleep_until(due);
        let woke = Instant::now();
        let sent = self.write(seq, body)?;
        selects.push(Sent {
            due: if closed { sent } else { due },
            woke,
            sent,
            closed,
        });
        Ok(())
    }

    fn reload(&mut self, reloads: &mut Vec<Instant>, due: Instant) -> std::io::Result<()> {
        sleep_until(due);
        let id = RELOAD_BASE + reloads.len() as u64;
        reloads.push(due);
        self.write(id, "\"op\":\"reload\"").map(|_| ())
    }
}

fn send(
    stream: TcpStream,
    plan: &Plan<'_>,
    totals: &(AtomicU64, AtomicU64),
    completions: mpsc::Receiver<u64>,
) -> std::io::Result<SendLog> {
    let mut tx = Sender {
        stream,
        line: Vec::with_capacity(4096),
    };
    let mut selects: Vec<Sent> = Vec::with_capacity(2 * plan.arrivals.len() + 1024);
    let mut reloads: Vec<Instant> = Vec::with_capacity(plan.reloads.len());
    let start = Instant::now() + LEAD;
    let closed_start = start + plan.open;
    let closed_end = closed_start + plan.closed;
    let mut reload_dues = plan
        .reloads
        .iter()
        .map(|&offset| start + offset)
        .filter(|&due| due < closed_end)
        .peekable();

    // Open loop: a fixed schedule, reloads interleaved at their own dues.
    for &offset in plan.arrivals {
        let due = start + offset;
        while let Some(r) = reload_dues.next_if(|&r| r <= due) {
            tx.reload(&mut reloads, r)?;
        }
        tx.select(plan, &mut selects, due, false)?;
    }

    // Closed loop: top its own selects up to `depth` outstanding after
    // every completion (open-loop stragglers do not count).
    sleep_until(closed_start);
    let open_rss_mb = crate::rss_peak_mb();
    let closed_from = selects.len() as u64;
    let mut completed = 0;
    let is_closed = |seq: &u64| *seq >= closed_from;
    loop {
        let now = Instant::now();
        while let Some(r) = reload_dues.next_if(|&r| r <= now) {
            tx.reload(&mut reloads, r)?;
        }
        // Top up at least once, even if the open loop overran the closed
        // one, so every run has closed-loop samples.
        let sent = selects.len() as u64 - closed_from;
        if now < closed_end || sent == 0 {
            for _ in (sent - completed) as usize..plan.depth {
                tx.select(plan, &mut selects, now, true)?;
            }
        }
        if now >= closed_end {
            break;
        }
        let wake = reload_dues
            .peek()
            .map_or(closed_end, |&r| r.min(closed_end));
        match completions.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Ok(seq) => {
                completed += u64::from(is_closed(&seq))
                    + completions.try_iter().filter(is_closed).count() as u64
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }

    // Publish the totals before the closing ping, so the receiver knows
    // them by the time the ping's reply arrives.
    totals.0.store(selects.len() as u64, Ordering::SeqCst);
    totals.1.store(reloads.len() as u64, Ordering::SeqCst);
    tx.write(PING_ID, "\"op\":\"ping\"")?;
    Ok((selects, reloads, start, open_rss_mb))
}

type Received = (Vec<Option<Reply>>, Vec<Option<Reply>>);

fn receive(
    stream: TcpStream,
    plan: &Plan<'_>,
    totals: &(AtomicU64, AtomicU64),
    completions: mpsc::Sender<u64>,
) -> std::io::Result<Received> {
    let mut reader = BufReader::with_capacity(1 << 16, stream);
    let mut raw = Vec::with_capacity(1 << 16);
    let mut selects: Vec<Option<Reply>> = Vec::new();
    let mut reloads: Vec<Option<Reply>> = Vec::new();
    let (mut n_selects, mut n_reloads, mut pinged) = (0u64, 0u64, false);
    loop {
        if pinged
            && n_selects == totals.0.load(Ordering::SeqCst)
            && n_reloads == totals.1.load(Ordering::SeqCst)
        {
            return Ok((selects, reloads));
        }
        raw.clear();
        if reader.read_until(b'\n', &mut raw)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-run",
            ));
        }
        let done = Instant::now();
        let line = std::str::from_utf8(&raw)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?
            .trim_end();
        let id = reply_id(line).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("reply without an id: {}", &line[..line.len().min(120)]),
            )
        })?;
        if id == PING_ID {
            pinged = true;
            continue;
        }
        let (slots, index) = if id >= RELOAD_BASE {
            n_reloads += 1;
            (&mut reloads, (id - RELOAD_BASE) as usize)
        } else {
            n_selects += 1;
            // The sender only waits on this in the closed loop; a closed
            // channel just means it has finished sending.
            let _ = completions.send(id);
            (&mut selects, id as usize)
        };
        let ok = status_of(line) == Some("ok");
        let keep = id < RELOAD_BASE && (plan.keep)(id);
        if slots.len() <= index {
            slots.resize(index + 1, None);
        }
        slots[index] = Some(Reply {
            done,
            ok,
            generation: if ok { generation_of(line) } else { None },
            line: keep.then(|| line.to_string()),
        });
    }
}

/// The `id` of a reply envelope (`{"id":N,...`).
fn reply_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Send one control line on a fresh connection and return its reply.
pub fn control(addr: &str, op: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    stream.write_all(format!("{{\"id\":0,\"op\":\"{op}\"}}\n").as_bytes())?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    Ok(line.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_ids_parse_from_envelopes() {
        assert_eq!(reply_id("{\"id\":42,\"status\":\"ok\"}"), Some(42));
        assert_eq!(
            reply_id(&format!("{{\"id\":{PING_ID},\"x\":1}}")),
            Some(PING_ID)
        );
        assert_eq!(reply_id("{\"status\":\"ok\"}"), None);
        assert_eq!(reply_id("{\"id\":}"), None);
    }
}

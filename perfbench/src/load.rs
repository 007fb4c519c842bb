//! Open-loop, pipelined HTTP load over two keep-alive connections.
//!
//! Request `i` is due at `start + i / rate` and goes out on connection
//! `i mod 2` as soon as it is due, whether or not earlier requests have
//! been answered: the schedule never waits for the server. Two threads do
//! all the work — the calling thread sends, one spawned thread reads both
//! connections through `poll(2)` — so the generator stays within the two
//! cores and two connections of a small host. Each answer is timed from
//! its due time, so a stall charges every request queued behind it; the
//! generator's own lateness (send time minus due time) is reported too.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// Connections the load is striped over.
pub const CONNS: usize = 2;

/// One answered request.
#[derive(Debug, Clone)]
pub struct Answer {
    /// HTTP status.
    pub status: u16,
    /// Answer time minus due time, milliseconds.
    pub latency_ms: f64,
    /// The response body, kept only for sampled requests.
    pub body: Option<Vec<u8>>,
}

/// What one open-loop run observed, by request index.
#[derive(Debug)]
pub struct Run {
    /// `None` when no answer arrived (connection lost or timed out).
    pub answers: Vec<Option<Answer>>,
    /// Send time minus due time per request, milliseconds.
    pub late_ms: Vec<f64>,
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: std::os::raw::c_ulong, timeout: i32) -> i32;
}

/// Sends `requests` (complete HTTP/1.1 request bytes) at `rate` per
/// second and collects the answers. Bodies are kept for indices where
/// `keep_body` is true. Requests still unanswered `grace` after the last
/// one was due are left `None`.
///
/// # Errors
///
/// Connection set-up failures.
pub fn run(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    rate: f64,
    keep_body: &(dyn Fn(usize) -> bool + Sync),
    grace: Duration,
) -> Result<Run, String> {
    let n = requests.len();
    let mut writers = Vec::with_capacity(CONNS);
    let mut readers = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        readers.push(s.try_clone().map_err(|e| e.to_string())?);
        writers.push(s);
    }
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut late_ms = vec![0.0; n];
    let start = Instant::now();
    let deadline = start + due(n) + grace;

    let answers = std::thread::scope(|scope| {
        let receiver = scope.spawn(|| receive(readers, n, start, &due, keep_body, deadline));
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); CONNS];
        let mut i = 0;
        let mut alive = true;
        while i < n && alive {
            let now = Instant::now();
            let elapsed = now - start;
            if due(i) > elapsed {
                std::thread::sleep(due(i) - elapsed);
                continue;
            }
            // Everything due by now goes out in one write per connection.
            let upto = ((elapsed.as_secs_f64() * rate).floor() as usize + 1).clamp(i + 1, n);
            for b in &mut bufs {
                b.clear();
            }
            for (k, late) in late_ms.iter_mut().enumerate().take(upto).skip(i) {
                bufs[k % CONNS].extend_from_slice(&requests[k]);
                *late = (elapsed - due(k)).as_secs_f64() * 1e3;
            }
            for (w, b) in writers.iter_mut().zip(&bufs) {
                if !b.is_empty() && w.write_all(b).is_err() {
                    alive = false;
                }
            }
            i = upto;
        }
        receiver.join().expect("receiver thread panicked")
    });
    Ok(Run { answers, late_ms })
}

/// Reads answers off both connections until all `n` arrive or the
/// deadline passes. Responses on one connection come back in request
/// order, so the `k`-th answer on connection `c` is request `c + k·CONNS`.
fn receive(
    mut conns: Vec<TcpStream>,
    n: usize,
    start: Instant,
    due: &dyn Fn(usize) -> Duration,
    keep_body: &(dyn Fn(usize) -> bool + Sync),
    deadline: Instant,
) -> Vec<Option<Answer>> {
    let mut answers: Vec<Option<Answer>> = vec![None; n];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); CONNS];
    let mut next: Vec<usize> = (0..CONNS).collect();
    let mut open = [true; CONNS];
    let mut received = 0;
    let mut chunk = vec![0u8; 1 << 16];
    while received < n && open.iter().any(|&o| o) {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd {
                fd: c.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let wait_ms = (deadline - now).as_millis().clamp(1, 50) as i32;
        // SAFETY: `fds` is a live, exclusively borrowed array of
        // `fds.len()` `PollFd`s laid out as `struct pollfd`, and each fd
        // belongs to a `TcpStream` in `conns` that outlives the call.
        let ready = unsafe {
            poll(
                fds.as_mut_ptr(),
                fds.len() as std::os::raw::c_ulong,
                wait_ms,
            )
        };
        if ready <= 0 {
            continue;
        }
        for c in 0..CONNS {
            if !open[c] || fds[c].revents == 0 {
                continue;
            }
            let got = match conns[c].read(&mut chunk) {
                Ok(0) | Err(_) => {
                    open[c] = false;
                    continue;
                }
                Ok(got) => got,
            };
            let at = start.elapsed();
            bufs[c].extend_from_slice(&chunk[..got]);
            let mut used = 0;
            while let Some((status, body, len)) = parse_response(&bufs[c][used..]) {
                let i = next[c];
                if i < n {
                    answers[i] = Some(Answer {
                        status,
                        latency_ms: at.saturating_sub(due(i)).as_secs_f64() * 1e3,
                        body: keep_body(i).then(|| body.to_vec()),
                    });
                    received += 1;
                }
                next[c] += CONNS;
                used += len;
            }
            bufs[c].drain(..used);
        }
    }
    answers
}

/// Parses one complete HTTP/1.1 response off the front of `buf`:
/// `(status, body, bytes consumed)`, or `None` when incomplete.
fn parse_response(buf: &[u8]) -> Option<(u16, &[u8], usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let length: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())
        .unwrap_or(0);
    let body_start = head_end + 4;
    let end = body_start.checked_add(length)?;
    (buf.len() >= end).then(|| (status, &buf[body_start..end], end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_pipelined_responses() {
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 503 X\r\ncontent-length: 0\r\n\r\n";
        let (s, b, n) = parse_response(two).unwrap();
        assert_eq!((s, b, n), (200, &b"{}"[..], 40));
        let (s, b, _) = parse_response(&two[n..]).unwrap();
        assert_eq!((s, b.len()), (503, 0));
        assert!(parse_response(&two[..30]).is_none());
    }
}

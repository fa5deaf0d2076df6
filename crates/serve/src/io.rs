//! Non-blocking connection front-end: a few I/O threads multiplex every
//! client socket instead of two threads per connection.
//!
//! The previous front-end spawned a reader and a writer thread per
//! client, so a thousand idle JSONL connections cost two thousand parked
//! threads. Here each I/O thread owns a set of non-blocking sockets and
//! runs a poll loop in the zero-heavy-dependency spirit of the
//! workspace: read until `WouldBlock`, split complete lines, dispatch
//! them to the server's request handler, drain the per-connection
//! response channel into a write buffer, write until `WouldBlock`.
//! Solver work never runs on an I/O thread — dispatch only parses and
//! enqueues, exactly like the old reader threads, so admission control,
//! deadlines and metrics seams are unchanged.
//!
//! Thread 0 additionally owns the listener and deals new connections
//! round-robin across the pool. Responses still travel through one mpsc
//! channel per connection, preserving the out-of-order reply contract
//! (workers answer jobs at their own pace; clients match on `id`).
//!
//! Wake-ups: a pass that moves nothing parks its thread for at most
//! [`IDLE_PARK`]. Every reply goes through the connection's
//! [`ReplyHandle`], which queues the response and then unparks the
//! owning I/O thread, so a finished reply leaves on the next pass
//! rather than after the park runs out. An unpark that lands mid-pass
//! leaves a token and the next park returns at once. Sockets set
//! `TCP_NODELAY`: a reply written while an earlier one is still
//! unacknowledged would otherwise wait for the client's delayed ACK.
//!
//! Lifecycle: a connection is dropped once its peer is gone — read EOF
//! or error — *and* every response owed to it has been written. The
//! owed-responses condition falls out of channel semantics: the
//! connection's own reply handle is dropped at EOF, every admitted job
//! holds a clone until answered, so `try_recv` returning `Disconnected`
//! with an empty write buffer means nothing is outstanding. On shutdown
//! the server joins its workers first (all responses are then in the
//! channels), flips the exit flag, and each I/O thread performs a final
//! blocking flush before closing its sockets.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

use crate::protocol::{encode_response_line, Response, NOT_UTF8};

/// Parsed-line handler supplied by the server: dispatch one request
/// line, sending any responses through the connection's reply handle.
pub(crate) type Dispatch = Arc<dyn Fn(&str, &ReplyHandle) + Send + Sync>;

/// Longest park of an I/O thread after a pass that made no progress.
/// A reply unparks it early; bytes arriving on a socket do not, so this
/// bounds how long a new request waits to be read, and an idle daemon
/// wakes once per period.
const IDLE_PARK: Duration = Duration::from_millis(1);

/// Per-pass read chunk; connections buffer partial lines across passes.
const READ_CHUNK: usize = 16 * 1024;

/// Where a connection's replies go: its response channel, plus the I/O
/// thread that drains that channel.
#[derive(Clone)]
pub(crate) struct ReplyHandle {
    tx: mpsc::Sender<Response>,
    io: Thread,
}

impl ReplyHandle {
    /// Queue `resp` for the connection, then wake its I/O thread. The
    /// unpark comes after the send, so the woken pass finds the reply.
    /// A reply to a connection that is already gone is dropped.
    pub(crate) fn send(&self, resp: Response) {
        if self.tx.send(resp).is_ok() {
            self.io.unpark();
        }
    }
}

/// One multiplexed client connection.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet split into complete lines.
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already searched for a newline (it holds none).
    scanned: usize,
    /// Encoded responses not yet fully written.
    wbuf: Vec<u8>,
    /// Prefix of `wbuf` already written to the socket.
    wpos: usize,
    /// Our clone of the reply handle; dropped at read-EOF so that `rx`
    /// disconnects once the last in-flight job answers.
    tx: Option<ReplyHandle>,
    rx: mpsc::Receiver<Response>,
    dead: bool,
}

impl Conn {
    /// Wrap `stream` for the calling I/O thread, which its replies wake.
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let (tx, rx) = mpsc::channel();
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
            scanned: 0,
            wbuf: Vec::new(),
            wpos: 0,
            tx: Some(ReplyHandle {
                tx,
                io: thread::current(),
            }),
            rx,
            dead: false,
        })
    }

    /// One non-blocking pass: read, dispatch, drain, write. Returns
    /// true when any byte or message moved.
    fn poll(&mut self, dispatch: &Dispatch, exiting: bool) -> bool {
        let mut progress = false;

        // Read until WouldBlock, then hand every complete line to the
        // dispatcher. Partial trailing lines stay buffered.
        if self.tx.is_some() {
            let mut eof = false;
            let mut chunk = [0u8; READ_CHUNK];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        progress = true;
                        break;
                    }
                    Ok(n) => {
                        self.rbuf.extend_from_slice(&chunk[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        // Peer reset: nothing we still owe is deliverable.
                        self.dead = true;
                        return true;
                    }
                }
            }
            // Search only the bytes that arrived since the last pass, and
            // drop the consumed lines once: a long line costs linear time
            // however many reads it spans.
            let mut start = 0;
            while let Some(off) = self.rbuf[self.scanned..].iter().position(|&b| b == b'\n') {
                let end = self.scanned + off;
                self.scanned = end + 1;
                progress = true;
                if let Some(tx) = &self.tx {
                    match std::str::from_utf8(&self.rbuf[start..end]).map(str::trim) {
                        Ok("") => {}
                        Ok(text) => dispatch(text, tx),
                        Err(_) => tx.send(Response::Error {
                            id: String::new(),
                            error: NOT_UTF8.to_string(),
                        }),
                    }
                }
                start = end + 1;
            }
            self.rbuf.drain(..start);
            self.scanned = self.rbuf.len();
            if eof {
                // Half-close: stop reading, keep writing what we owe.
                self.tx = None;
            }
        }

        // Drain finished responses into the write buffer.
        loop {
            match self.rx.try_recv() {
                Ok(resp) => {
                    self.wbuf
                        .extend_from_slice(encode_response_line(&resp).as_bytes());
                    progress = true;
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => {
                    // Reader closed and no job holds a sender: once the
                    // write buffer empties the connection is complete.
                    if self.wpos == self.wbuf.len() {
                        self.dead = true;
                    }
                    break;
                }
            }
        }

        // Write until WouldBlock.
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    return true;
                }
                Ok(n) => {
                    self.wpos += n;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return true;
                }
            }
        }
        if self.wpos == self.wbuf.len() && self.wpos > 0 {
            self.wbuf.clear();
            self.wpos = 0;
        }

        if self.dead {
            return true;
        }
        if exiting {
            // Workers are already joined, so everything owed is in
            // `wbuf` by now. One blocking flush, then close.
            let _ = self.stream.set_nonblocking(false);
            if self.wpos < self.wbuf.len() {
                let _ = self.stream.write_all(&self.wbuf[self.wpos..]);
            }
            let _ = self.stream.flush();
            self.dead = true;
            progress = true;
        }
        progress
    }
}

/// Spawn the I/O pool: `threads` poll loops, with thread 0 accepting
/// from `listener` and dealing streams round-robin across the pool.
pub(crate) fn spawn(
    listener: TcpListener,
    threads: usize,
    exit: Arc<AtomicBool>,
    dispatch: Dispatch,
) -> Vec<JoinHandle<()>> {
    let threads = threads.max(1);
    let mut senders = Vec::with_capacity(threads);
    let mut receivers = Vec::with_capacity(threads);
    for _ in 0..threads {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        senders.push(tx);
        receivers.push(rx);
    }
    receivers
        .into_iter()
        .enumerate()
        .map(|(i, injector)| {
            let exit = Arc::clone(&exit);
            let dispatch = Arc::clone(&dispatch);
            let acceptor = (i == 0).then(|| (listener.try_clone(), senders.clone()));
            thread::spawn(move || match acceptor {
                Some((Ok(listener), senders)) => {
                    io_loop(Some((listener, senders)), injector, &exit, &dispatch)
                }
                _ => io_loop(None, injector, &exit, &dispatch),
            })
        })
        .collect()
}

fn io_loop(
    mut acceptor: Option<(TcpListener, Vec<mpsc::Sender<TcpStream>>)>,
    injector: mpsc::Receiver<TcpStream>,
    exit: &AtomicBool,
    dispatch: &Dispatch,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut next = 0usize;
    loop {
        // Latch the flag once per pass so every connection gets exactly
        // one final-flush poll after it flips.
        let exiting = exit.load(Ordering::SeqCst);
        let mut progress = false;

        if let Some((listener, senders)) = &mut acceptor {
            if exiting {
                acceptor = None;
            } else {
                loop {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            progress = true;
                            let _ = senders[next % senders.len()].send(stream);
                            next += 1;
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        Err(_) => {
                            acceptor = None;
                            break;
                        }
                    }
                }
            }
        }

        while let Ok(stream) = injector.try_recv() {
            if let Ok(conn) = Conn::new(stream) {
                conns.push(conn);
                progress = true;
            }
        }

        for conn in &mut conns {
            if conn.poll(dispatch, exiting) {
                progress = true;
            }
        }
        conns.retain(|c| !c.dead);

        if exiting && conns.is_empty() {
            break;
        }
        if !progress {
            thread::park_timeout(IDLE_PARK);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn a_reply_wakes_the_thread_that_drains_it() {
        let (tx, rx) = mpsc::channel();
        let (polled_tx, polled_rx) = mpsc::channel();
        let waiter = thread::spawn(move || {
            let started = Instant::now();
            loop {
                if let Ok(resp) = rx.try_recv() {
                    return (resp, started.elapsed());
                }
                // Like an I/O pass that found nothing: park next.
                let _ = polled_tx.send(());
                thread::park_timeout(Duration::from_secs(60));
            }
        });
        let reply = ReplyHandle {
            tx,
            io: waiter.thread().clone(),
        };
        polled_rx.recv().expect("waiter polled");
        reply.send(Response::Bye);
        let (resp, waited) = waiter.join().expect("waiter");
        assert!(matches!(resp, Response::Bye), "{resp:?}");
        assert!(waited < Duration::from_secs(10), "woke after {waited:?}");
    }
}

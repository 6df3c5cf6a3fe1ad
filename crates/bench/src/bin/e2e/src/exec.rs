//! Driving the real `hxq` binary: one timed, checked query at a time
//! (closed loop, one client), and the separate peak-memory pass.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::report::Fnv;
use crate::workload::Expect;

/// A query still running after this long is killed and counted failed.
pub const TIMEOUT: Duration = Duration::from_secs(60);

/// What one `hxq` run did.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// `None` when a signal ended it.
    pub exit: Option<i32>,
    pub digest: u64,
    pub stdout_bytes: u64,
    pub timed_out: bool,
    /// Spawn to exit, stdout fully drained.
    pub ms: f64,
}

impl Outcome {
    /// Compare with the oracle's expectation.
    pub fn check(&self, want: Expect) -> Result<(), String> {
        if self.timed_out {
            return Err(format!(
                "timed out after {} s and was killed",
                TIMEOUT.as_secs()
            ));
        }
        match self.exit {
            None => Err("killed by a signal".into()),
            Some(code) if code != want.exit => {
                Err(format!("exit code {code}, expected {}", want.exit))
            }
            Some(_) if self.digest != want.digest => Err(format!(
                "wrong answer: stdout digest {:016x} ({} bytes), expected {:016x}",
                self.digest, self.stdout_bytes, want.digest
            )),
            Some(_) => Ok(()),
        }
    }
}

/// Kills the running query once it passes its deadline. One long-lived
/// thread that sleeps on a condition variable, so it costs nothing while
/// queries finish in time.
struct Watchdog {
    shared: Arc<(Mutex<Guard>, Condvar)>,
    thread: Option<JoinHandle<()>>,
}

#[derive(Default)]
struct Guard {
    armed: Option<(u64, u32, Instant)>,
    fired: Option<u64>,
    next_ticket: u64,
    stop: bool,
}

impl Watchdog {
    fn new() -> Watchdog {
        let shared = Arc::new((Mutex::new(Guard::default()), Condvar::new()));
        let inner = Arc::clone(&shared);
        let thread = std::thread::spawn(move || {
            let (lock, cv) = &*inner;
            let mut g = lock.lock().expect("watchdog lock poisoned");
            while !g.stop {
                match g.armed {
                    None => g = cv.wait(g).expect("watchdog lock poisoned"),
                    Some((ticket, pid, deadline)) => {
                        let now = Instant::now();
                        if now >= deadline {
                            // std offers no kill-by-pid; the child is
                            // owned by the thread reading its stdout.
                            let _ = Command::new("kill")
                                .args(["-KILL", &pid.to_string()])
                                .status();
                            g.fired = Some(ticket);
                            g.armed = None;
                        } else {
                            g = cv
                                .wait_timeout(g, deadline - now)
                                .expect("watchdog lock poisoned")
                                .0;
                        }
                    }
                }
            }
        });
        Watchdog {
            shared,
            thread: Some(thread),
        }
    }

    fn arm(&self, pid: u32) -> u64 {
        let (lock, cv) = &*self.shared;
        let mut g = lock.lock().expect("watchdog lock poisoned");
        g.next_ticket += 1;
        let ticket = g.next_ticket;
        g.armed = Some((ticket, pid, Instant::now() + TIMEOUT));
        cv.notify_one();
        ticket
    }

    /// Stand down; reports whether the watchdog killed this query.
    fn disarm(&self, ticket: u64) -> bool {
        let (lock, cv) = &*self.shared;
        let mut g = lock.lock().expect("watchdog lock poisoned");
        g.armed = None;
        cv.notify_one();
        g.fired == Some(ticket)
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        let (lock, cv) = &*self.shared;
        if let Ok(mut g) = lock.lock() {
            g.stop = true;
            cv.notify_one();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The `hxq` binary under test.
pub struct Hxq {
    bin: PathBuf,
    watchdog: Watchdog,
}

fn spawn(bin: &PathBuf, args: &[String], stdin: bool, stdout: Stdio) -> std::io::Result<Child> {
    Command::new(bin)
        .args(args)
        .stdin(if stdin { Stdio::piped() } else { Stdio::null() })
        .stdout(stdout)
        .stderr(Stdio::null())
        .spawn()
}

/// Feed `bytes` to the child's stdin from a scoped writer thread. `hxq`
/// may exit before reading everything (a failure, or an early answer), so
/// a broken pipe is not an error here.
fn feed<'s>(
    scope: &'s std::thread::Scope<'s, '_>,
    child: &mut Child,
    bytes: Option<&'s [u8]>,
) -> Option<std::thread::ScopedJoinHandle<'s, ()>> {
    let bytes = bytes?;
    let mut pipe = child.stdin.take().expect("stdin was piped");
    Some(scope.spawn(move || {
        let _ = pipe.write_all(bytes);
    }))
}

impl Hxq {
    pub fn new(bin: PathBuf) -> Hxq {
        Hxq {
            bin,
            watchdog: Watchdog::new(),
        }
    }

    /// Run `hxq args` once, piping `stdin` in if given. Timed from spawn
    /// until the process has exited with its stdout drained.
    pub fn run(&self, args: &[String], stdin: Option<&[u8]>) -> std::io::Result<Outcome> {
        std::thread::scope(|scope| {
            let start = Instant::now();
            let mut child = spawn(&self.bin, args, stdin.is_some(), Stdio::piped())?;
            let ticket = self.watchdog.arm(child.id());
            let writer = feed(scope, &mut child, stdin);
            let mut out = child.stdout.take().expect("stdout was piped");
            let mut fnv = Fnv::new();
            let mut buf = vec![0u8; 64 * 1024];
            let mut stdout_bytes = 0u64;
            let drained = loop {
                match out.read(&mut buf) {
                    Ok(0) => break Ok(()),
                    Ok(n) => {
                        fnv.update(&buf[..n]);
                        stdout_bytes += n as u64;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(e),
                }
            };
            if drained.is_err() {
                let _ = child.kill();
            }
            let status = child.wait();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let timed_out = self.watchdog.disarm(ticket);
            if let Some(w) = writer {
                let _ = w.join();
            }
            drained?;
            Ok(Outcome {
                exit: status?.code(),
                digest: fnv.finish(),
                stdout_bytes,
                timed_out,
                ms,
            })
        })
    }

    /// Peak resident memory (`VmHWM`, kB) of one run per job, polling
    /// `/proc/<pid>/status` every half millisecond. Runs two children at a
    /// time: memory is per process, so overlap does not change it. Also
    /// returns each run's exit code (`None` on a signal).
    pub fn peak_rss_kb(
        &self,
        jobs: &[(Vec<String>, Option<&[u8]>)],
    ) -> std::io::Result<Vec<(u64, Option<i32>)>> {
        let mut results = vec![(0u64, None); jobs.len()];
        std::thread::scope(|scope| {
            let mut next = 0;
            let mut active: Vec<(usize, Child, u64, Instant)> = Vec::new();
            loop {
                while active.len() < 2 && next < jobs.len() {
                    let (args, stdin) = &jobs[next];
                    let mut child = spawn(&self.bin, args, stdin.is_some(), Stdio::null())?;
                    // Detached on purpose: a writer ends when its child
                    // exits and the pipe breaks.
                    let _ = feed(scope, &mut child, *stdin);
                    active.push((next, child, 0, Instant::now()));
                    next += 1;
                }
                if active.is_empty() {
                    return Ok(results);
                }
                let mut i = 0;
                while i < active.len() {
                    let (job, child, hwm, started) = &mut active[i];
                    if let Some(kb) = vm_hwm_kb(child.id()) {
                        *hwm = (*hwm).max(kb);
                    }
                    if started.elapsed() > TIMEOUT {
                        let _ = child.kill();
                    }
                    if let Some(status) = child.try_wait()? {
                        results[*job] = (*hwm, status.code());
                        active.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        })
    }
}

/// `VmHWM` of a live process, in kB.
fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

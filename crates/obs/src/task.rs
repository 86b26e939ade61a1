//! The server-task registry behind the `show tasks` console command.
//!
//! Every long-running background thread (checkpointer, agent manager,
//! logger, DDM probes) registers itself with [`register_task`] and beats
//! its heart each cycle with [`TaskHandle::beat`]. `show tasks` then
//! renders the live roster the way a Domino console does — task name,
//! state, and activity — so an operator can see at a glance what the
//! server is running. Dropping the handle removes the task from the
//! roster (a stopped task is not listed, as on Domino). Periodic tasks
//! run on [`spawn_periodic`], which does all of that for them.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::event::process_nanos;

/// Shared state of one registered task.
struct TaskEntry {
    name: String,
    kind: &'static str,
    started_nanos: u64,
    beats: AtomicU64,
    last_beat_nanos: AtomicU64,
    status: Mutex<String>,
}

/// A point-in-time description of one live task (what [`tasks`] returns).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskInfo {
    /// Task name (`"logger"`, `"checkpointer:log"`, …).
    pub name: String,
    /// What kind of work it does (free-form static label).
    pub kind: &'static str,
    /// Monotonic nanos (event-bus clock) when it registered.
    pub started_nanos: u64,
    /// Completed work cycles.
    pub beats: u64,
    /// Monotonic nanos of the most recent beat (0 before the first).
    pub last_beat_nanos: u64,
    /// Latest free-form status line (`"Idle"` until the task says more).
    pub status: String,
}

/// Keeps a task on the roster while it lives; beat it once per cycle.
/// Dropping it (or the owning thread exiting with it) de-lists the task.
pub struct TaskHandle {
    entry: Arc<TaskEntry>,
}

impl TaskHandle {
    /// Record one completed work cycle.
    pub fn beat(&self) {
        self.entry.beats.fetch_add(1, Ordering::Relaxed);
        self.entry
            .last_beat_nanos
            .store(process_nanos(), Ordering::Relaxed);
    }

    /// Replace the task's status line.
    pub fn set_status(&self, status: &str) {
        *self.entry.status.lock().unwrap_or_else(|p| p.into_inner()) = status.to_string();
    }

    /// Cycles completed so far.
    pub fn beats(&self) -> u64 {
        self.entry.beats.load(Ordering::Relaxed)
    }
}

impl Drop for TaskHandle {
    fn drop(&mut self) {
        let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
        reg.retain(|w| match w.upgrade() {
            Some(e) => !Arc::ptr_eq(&e, &self.entry),
            None => false,
        });
    }
}

fn registry() -> &'static Mutex<Vec<Weak<TaskEntry>>> {
    static REG: OnceLock<Mutex<Vec<Weak<TaskEntry>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// Register a background task on the `show tasks` roster. Keep the
/// returned handle alive for the task's lifetime and [`TaskHandle::beat`]
/// it every cycle.
pub fn register_task(name: &str, kind: &'static str) -> TaskHandle {
    let entry = Arc::new(TaskEntry {
        name: name.to_string(),
        kind,
        started_nanos: process_nanos(),
        beats: AtomicU64::new(0),
        last_beat_nanos: AtomicU64::new(0),
        status: Mutex::new("Idle".to_string()),
    });
    registry()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .push(Arc::downgrade(&entry));
    TaskHandle { entry }
}

/// Snapshot the live task roster, in registration order.
pub fn tasks() -> Vec<TaskInfo> {
    let mut reg = registry().lock().unwrap_or_else(|p| p.into_inner());
    reg.retain(|w| w.strong_count() > 0);
    reg.iter()
        .filter_map(Weak::upgrade)
        .map(|e| TaskInfo {
            name: e.name.clone(),
            kind: e.kind,
            started_nanos: e.started_nanos,
            beats: e.beats.load(Ordering::Relaxed),
            last_beat_nanos: e.last_beat_nanos.load(Ordering::Relaxed),
            status: e.status.lock().unwrap_or_else(|p| p.into_inner()).clone(),
        })
        .collect()
}

/// Why [`spawn_periodic`] calls its tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// `every` has passed since the previous tick ended: do one cycle.
    Due,
    /// [`TaskThread::stop`] (or drop) ended the task: a last chance to
    /// flush. The thread exits after this call whatever it returns.
    Stop,
}

/// Run `tick` on a thread registered as `name`/`kind`, `every` after
/// the previous tick ended (fixed delay), until it returns
/// [`ControlFlow::Break`] or the handle is stopped. Stopping wakes the
/// thread at once for one last tick with [`Wake::Stop`].
pub fn spawn_periodic<F>(name: &str, kind: &'static str, every: Duration, mut tick: F) -> TaskThread
where
    F: FnMut(&TaskHandle, Wake) -> ControlFlow<()> + Send + 'static,
{
    let stop = Arc::new((Mutex::new(false), Condvar::new()));
    let signal = Arc::clone(&stop);
    let task_name = name.to_string();
    let join = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            let task = register_task(&task_name, kind);
            let (stopped, wake) = &*signal;
            loop {
                let guard = stopped.lock().unwrap_or_else(PoisonError::into_inner);
                let stop = *wake
                    .wait_timeout_while(guard, every, |stopped| !*stopped)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
                let why = if stop { Wake::Stop } else { Wake::Due };
                if tick(&task, why).is_break() || stop {
                    return;
                }
            }
        })
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    TaskThread {
        stop,
        join: Some(join),
    }
}

/// Handle on a [`spawn_periodic`] thread. Stopping or dropping it wakes
/// the thread at once and joins it.
pub struct TaskThread {
    stop: Arc<(Mutex<bool>, Condvar)>,
    join: Option<JoinHandle<()>>,
}

impl TaskThread {
    /// Stop the thread and wait for it to exit.
    pub fn stop(self) {
        drop(self);
    }
}

impl Drop for TaskThread {
    fn drop(&mut self) {
        let (stopped, wake) = &*self.stop;
        *stopped.lock().unwrap_or_else(PoisonError::into_inner) = true;
        wake.notify_all();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The `show tasks` console dump.
pub fn show_tasks() -> String {
    let mut out = String::from("> show tasks\n");
    let roster = tasks();
    if roster.is_empty() {
        out.push_str("  (no background tasks running)\n");
        return out;
    }
    let now = process_nanos();
    for t in roster {
        let up_secs = now.saturating_sub(t.started_nanos) / 1_000_000_000;
        out.push_str(&format!(
            "  {:<24} {:<16} up {:>6}s  beats {:>8}  {}\n",
            t.name, t.kind, up_secs, t.beats, t.status
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_beat_and_delist() {
        let h = register_task("test-task-alpha", "Test driver");
        h.beat();
        h.beat();
        h.set_status("ticking");
        let info = tasks()
            .into_iter()
            .find(|t| t.name == "test-task-alpha")
            .expect("registered task listed");
        assert_eq!(info.beats, 2);
        assert_eq!(info.status, "ticking");
        assert!(info.last_beat_nanos >= info.started_nanos);
        let dump = show_tasks();
        assert!(dump.starts_with("> show tasks\n"));
        assert!(dump.contains("test-task-alpha"));
        drop(h);
        assert!(!tasks().iter().any(|t| t.name == "test-task-alpha"));
    }

    fn listed(name: &str) -> bool {
        tasks().iter().any(|t| t.name == name)
    }

    #[test]
    fn stop_is_prompt_even_with_a_long_interval() {
        let wakes = Arc::new(Mutex::new(Vec::new()));
        let seen = wakes.clone();
        let t = spawn_periodic(
            "test-periodic-slow",
            "Test driver",
            Duration::from_secs(60),
            move |_, why| {
                seen.lock().unwrap().push(why);
                ControlFlow::Continue(())
            },
        );
        let began = std::time::Instant::now();
        while !listed("test-periodic-slow") {
            assert!(
                began.elapsed() < Duration::from_secs(5),
                "task never registered"
            );
            std::thread::yield_now();
        }
        t.stop();
        assert!(
            began.elapsed() < Duration::from_secs(1),
            "stop waited for the interval"
        );
        assert_eq!(*wakes.lock().unwrap(), vec![Wake::Stop]);
        assert!(!listed("test-periodic-slow"));
    }

    #[test]
    fn a_tick_returning_break_ends_the_task() {
        let (tx, rx) = std::sync::mpsc::channel();
        let t = spawn_periodic(
            "test-periodic-done",
            "Test driver",
            Duration::from_millis(1),
            move |_, _| {
                let _ = tx.send(show_tasks().contains("test-periodic-done"));
                ControlFlow::Break(())
            },
        );
        assert!(rx.recv().unwrap(), "task not listed while it runs");
        let began = std::time::Instant::now();
        while show_tasks().contains("test-periodic-done") {
            assert!(
                began.elapsed() < Duration::from_secs(5),
                "finished task still listed"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(rx.recv().is_err(), "tick ran again after Break");
        t.stop();
    }
}

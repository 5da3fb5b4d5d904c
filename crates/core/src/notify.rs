//! ACE daemon notifications (§2.5, Fig. 8).
//!
//! "All ACE daemons have notification commands semantically and syntactically
//! defined for them … services keep a running list of all other ACE commands
//! that are being 'listened' for and all the ACE services that are to be
//! notified when such commands are executed."
//!
//! [`NotificationRegistry`] is that running list; [`Notifier`] is the
//! delivery worker that invokes the registered command interface on the
//! notified services without blocking the daemon's control thread.

use crate::client::{ClientError, ServiceClient};
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::runtime::{RuntimeTask, TaskContext, TaskPoll};
use ace_lang::{CmdLine, DEADLINE_ARG};
use ace_net::{Addr, HostId, SimNet, WakeCell};
use ace_security::keys::KeyPair;
use crossbeam_channel::{Receiver, Sender, TryRecvError, TrySendError};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::task::{Wake, Waker};
use std::time::{Duration, Instant};

/// Reply timeout for notification delivery: a link that owes replies and
/// returns none for this long is dead, and what it owes is dropped.
/// Deliberately far below the command plane's 30s reply timeout.
const NOTIFY_CALL_TIMEOUT: Duration = Duration::from_secs(1);

/// Outbound queue bound.  A producer that outruns delivery (an event storm,
/// a partition stalling the worker on call timeouts) sheds the newest
/// messages — counted in `notify.shed` — instead of growing the queue, and
/// the daemon's memory, without limit.
const NOTIFY_QUEUE_CAPACITY: usize = 1024;

/// After a failed delivery the address sits in a negative cache this long;
/// messages to it are counted as drops instead of re-paying the connect or
/// call timeout for every queued message behind a dead subscriber.
const DEAD_BACKOFF: Duration = Duration::from_millis(250);

/// One registered listener: notify `service` at `addr` by invoking
/// `notify_cmd` when the watched command/event executes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    pub service: String,
    pub addr: Addr,
    pub notify_cmd: String,
}

/// The per-daemon table of watched commands → listeners.
#[derive(Debug, Default)]
pub struct NotificationRegistry {
    by_cmd: HashMap<String, Vec<Registration>>,
}

impl NotificationRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a listener (idempotent per `(cmd, service)`; the newest
    /// address/notify command wins).
    pub fn add(&mut self, cmd: &str, registration: Registration) {
        let slot = self.by_cmd.entry(cmd.to_string()).or_default();
        if let Some(existing) = slot.iter_mut().find(|r| r.service == registration.service) {
            *existing = registration;
        } else {
            slot.push(registration);
        }
    }

    /// Remove a listener; `true` if something was removed.
    pub fn remove(&mut self, cmd: &str, service: &str) -> bool {
        if let Some(slot) = self.by_cmd.get_mut(cmd) {
            let before = slot.len();
            slot.retain(|r| r.service != service);
            let removed = slot.len() != before;
            if slot.is_empty() {
                self.by_cmd.remove(cmd);
            }
            removed
        } else {
            false
        }
    }

    /// Listeners for one command/event.
    pub fn listeners(&self, cmd: &str) -> &[Registration] {
        self.by_cmd.get(cmd).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of registrations.
    pub fn len(&self) -> usize {
        self.by_cmd.values().map(Vec::len).sum()
    }

    /// `true` if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.by_cmd.is_empty()
    }

    /// Every registration as `(watched_cmd, registration)` rows, sorted for
    /// determinism — a live upgrade exports these so the replacement
    /// incarnation keeps notifying the same listeners.
    pub fn export(&self) -> Vec<(String, Registration)> {
        let mut out: Vec<(String, Registration)> = self
            .by_cmd
            .iter()
            .flat_map(|(cmd, regs)| regs.iter().map(move |r| (cmd.clone(), r.clone())))
            .collect();
        out.sort_by(|a, b| (&a.0, &a.1.service).cmp(&(&b.0, &b.1.service)));
        out
    }

    /// Build the notification command sent to a listener: the registered
    /// `notifyCmd` carrying provenance (`service`, `cmd`) plus the executed
    /// command's own arguments (skipping any that would collide).
    pub fn notification_cmd(
        registration: &Registration,
        origin_service: &str,
        executed: &CmdLine,
    ) -> CmdLine {
        let mut out = CmdLine::new(registration.notify_cmd.clone())
            .arg("service", origin_service)
            .arg("cmd", executed.name());
        for (name, value) in executed.args() {
            // The executed command's `deadline=` was the *caller's* budget;
            // propagating it would expire notifications that are delivered
            // after the original call returned.
            if name != "service" && name != "cmd" && name != DEADLINE_ARG {
                out.push_arg(name.clone(), value.clone());
            }
        }
        out
    }
}

/// One queued outbound message.
#[derive(Debug)]
pub struct Outbound {
    pub addr: Addr,
    pub cmd: CmdLine,
}

/// Asynchronous outbound delivery: a worker (its own thread in the
/// thread-per-daemon runtime, a cooperative task on the shared runtime)
/// with a connection cache.
///
/// Used for notifications and fire-and-forget logging so the control plane
/// never blocks on a slow or dead listener.
pub struct Notifier {
    /// `Option` so `Drop` can release the sender *before* waking the
    /// delivery worker — otherwise the worker would observe a
    /// still-connected channel and miss the disconnect.
    tx: Option<Sender<Outbound>>,
    shed: Arc<Counter>,
    wake: Arc<WakeCell>,
}

/// Handle used to join the worker on shutdown.
pub struct NotifierWorker {
    join: std::thread::JoinHandle<()>,
}

impl Notifier {
    /// Spawn the delivery worker on its own thread.  Delivery outcomes are
    /// recorded in `metrics` (`notify.delivered`, `notify.drops`,
    /// `notify.shed`, `notify.latency`, `notify.queueDepth`).  `links` are
    /// already-connected clients that seed the per-target link cache.
    pub fn spawn(
        net: SimNet,
        from_host: HostId,
        identity: Arc<KeyPair>,
        metrics: Arc<MetricsRegistry>,
        links: Vec<ServiceClient>,
    ) -> (Notifier, NotifierWorker) {
        let (notifier, mut task) = Notifier::cooperative(net, from_host, identity, metrics, links);
        let join = std::thread::Builder::new()
            .name(format!("notifier-{}", task.state.from_host))
            .spawn(move || task.run_on_thread())
            .expect("spawn notifier thread");
        (notifier, NotifierWorker { join })
    }

    /// Build a cooperative delivery worker for the shared runtime: same
    /// queue bound, shed accounting, and dead-listener cache as
    /// [`Notifier::spawn`], but the returned [`NotifierTask`] must be
    /// spawned on a [`crate::runtime::Runtime`] instead of a thread.
    pub fn cooperative(
        net: SimNet,
        from_host: HostId,
        identity: Arc<KeyPair>,
        metrics: Arc<MetricsRegistry>,
        links: Vec<ServiceClient>,
    ) -> (Notifier, NotifierTask) {
        let (tx, rx) = crossbeam_channel::bounded::<Outbound>(NOTIFY_QUEUE_CAPACITY);
        let shed = metrics.counter("notify.shed");
        let wake = Arc::new(WakeCell::new());
        let mut state = DeliveryState::new(&metrics, net, from_host, identity);
        for mut client in links {
            client.set_timeout(NOTIFY_CALL_TIMEOUT);
            state
                .targets
                .insert(client.target().clone(), Target::new(client));
        }
        let task = NotifierTask {
            rx,
            wake: Arc::clone(&wake),
            state,
        };
        (
            Notifier {
                tx: Some(tx),
                shed,
                wake,
            },
            task,
        )
    }

    /// Queue one message for delivery.  Returns `false` if the worker has
    /// stopped or the queue is full (the message is shed, never blocking
    /// the caller — typically the daemon's control thread).
    pub fn send(&self, addr: Addr, cmd: CmdLine) -> bool {
        let Some(tx) = &self.tx else { return false };
        match tx.try_send(Outbound { addr, cmd }) {
            Ok(()) => {
                self.wake.wake();
                true
            }
            Err(TrySendError::Full(_)) => {
                self.shed.incr();
                false
            }
            Err(TrySendError::Disconnected(_)) => false,
        }
    }
}

impl Clone for Notifier {
    fn clone(&self) -> Self {
        Notifier {
            tx: self.tx.clone(),
            shed: Arc::clone(&self.shed),
            wake: Arc::clone(&self.wake),
        }
    }
}

impl Drop for Notifier {
    fn drop(&mut self) {
        // Release our sender first, then wake: when this was the last
        // clone, the worker's next pass observes the disconnect and
        // completes once its owed replies are in.
        self.tx.take();
        self.wake.wake();
    }
}

impl NotifierWorker {
    /// Wait for the worker to drain and stop (all `Notifier` clones must be
    /// dropped first).
    pub fn join(self) {
        let _ = self.join.join();
    }
}

/// Per-pass send cap: after this many messages the worker yields
/// (`TaskPoll::Again`) so one storming daemon's notifications cannot
/// monopolize a shared-runtime worker.
const NOTIFY_BATCH: usize = 64;

/// A sent message whose reply has not been read yet.
struct Owed {
    cmd: CmdLine,
    /// When delivery began (the `notify.latency` origin).
    started: Instant,
    /// Already re-sent once after a link failure; a second failure drops
    /// it.
    retried: bool,
}

/// One listener's cached link and the replies it owes, oldest first.
/// Replies arrive in send order: the listener's session runs one command
/// at a time, in arrival order.
struct Target {
    client: ServiceClient,
    owed: VecDeque<Owed>,
    /// Last time the link made progress (a send into an idle pipeline, or a
    /// reply).  The link is dead once [`NOTIFY_CALL_TIMEOUT`] passes with
    /// replies owed and none arriving.
    progress: Instant,
}

impl Target {
    fn new(client: ServiceClient) -> Target {
        Target {
            client,
            owed: VecDeque::new(),
            progress: Instant::now(),
        }
    }
}

/// The delivery machinery: pipelined sends over per-target cached links,
/// reply collection, the dead-listener negative cache, and delivery
/// metrics.  Nothing here waits on a listener except a first connect.
struct DeliveryState {
    delivered: Arc<Counter>,
    drops: Arc<Counter>,
    latency: Arc<Histogram>,
    depth: Arc<Gauge>,
    targets: HashMap<Addr, Target>,
    // Negative cache of recently unreachable listeners.  Without it, a dead
    // subscriber makes every queued message behind it re-pay the failed
    // connect (and under partitions, the full call timeout) — head-of-line
    // blocking that stalls fan-out to the healthy subscribers.
    dead: HashMap<Addr, Instant>,
    net: SimNet,
    from_host: HostId,
    identity: Arc<KeyPair>,
}

impl DeliveryState {
    fn new(
        metrics: &MetricsRegistry,
        net: SimNet,
        from_host: HostId,
        identity: Arc<KeyPair>,
    ) -> Self {
        DeliveryState {
            delivered: metrics.counter("notify.delivered"),
            drops: metrics.counter("notify.drops"),
            latency: metrics.histogram("notify.latency"),
            depth: metrics.gauge("notify.queueDepth"),
            targets: HashMap::new(),
            dead: HashMap::new(),
            net,
            from_host,
            identity,
        }
    }

    /// Messages sent whose replies are still owed.
    fn in_flight(&self) -> usize {
        self.targets.values().map(|t| t.owed.len()).sum()
    }

    /// When the oldest owed reply times out, if any is owed.
    fn next_deadline(&self) -> Option<Instant> {
        self.targets
            .values()
            .filter(|t| !t.owed.is_empty())
            .map(|t| t.progress + NOTIFY_CALL_TIMEOUT)
            .min()
    }

    /// Begin delivering one message: send it on its target's link.
    fn start(&mut self, out: Outbound, waker: &Waker) {
        let owed = Owed {
            cmd: out.cmd,
            started: Instant::now(),
            retried: false,
        };
        self.transmit(out.addr, owed, waker);
    }

    fn transmit(&mut self, addr: Addr, owed: Owed, waker: &Waker) {
        if let Some(since) = self.dead.get(&addr) {
            if since.elapsed() < DEAD_BACKOFF {
                self.drops.incr();
                return;
            }
            self.dead.remove(&addr);
        }
        if !self.targets.contains_key(&addr) {
            match ServiceClient::connect(&self.net, &self.from_host, addr.clone(), &self.identity) {
                Ok(mut client) => {
                    client.set_timeout(NOTIFY_CALL_TIMEOUT);
                    self.targets.insert(addr.clone(), Target::new(client));
                }
                Err(_) => {
                    // A dead listener loses its notification (the paper's
                    // registry similarly cannot promise delivery to
                    // crashed services).
                    self.give_up(addr, 1);
                    return;
                }
            }
        }
        let target = self.targets.get_mut(&addr).expect("target just linked");
        target.client.register_waker(waker);
        let sent = target.client.send(&owed.cmd);
        if target.owed.is_empty() {
            target.progress = Instant::now();
        }
        target.owed.push_back(owed);
        if sent.is_err() {
            self.link_failed(&addr, waker);
        }
    }

    /// Read every reply that has arrived; time out links that stopped
    /// answering.
    fn collect(&mut self, waker: &Waker) {
        let now = Instant::now();
        let mut failed = Vec::new();
        let mut late = Vec::new();
        for (addr, target) in self.targets.iter_mut() {
            while !target.owed.is_empty() {
                match target.client.try_recv() {
                    // A declining listener (`error …;`) still received it.
                    Ok(Some(_)) | Err(ClientError::Service { .. }) => {
                        let owed = target.owed.pop_front().expect("owed reply");
                        self.delivered.incr();
                        self.latency.record(owed.started.elapsed());
                        target.progress = now;
                    }
                    Ok(None) => {
                        if now.duration_since(target.progress) >= NOTIFY_CALL_TIMEOUT {
                            late.push(addr.clone());
                        }
                        break;
                    }
                    Err(ClientError::Link(_)) => {
                        failed.push(addr.clone());
                        break;
                    }
                }
            }
        }
        for addr in late {
            let owed = self.targets.remove(&addr).map_or(0, |t| t.owed.len());
            self.give_up(addr, owed);
        }
        for addr in failed {
            self.link_failed(&addr, waker);
        }
    }

    /// The link to `addr` died: drop it and re-send what it still owed once
    /// on a fresh link, in order.  Messages already re-sent are dropped.
    fn link_failed(&mut self, addr: &Addr, waker: &Waker) {
        let Some(target) = self.targets.remove(addr) else {
            return;
        };
        for mut owed in target.owed {
            if owed.retried {
                self.give_up(addr.clone(), 1);
            } else {
                owed.retried = true;
                self.transmit(addr.clone(), owed, waker);
            }
        }
    }

    /// Count `n` undeliverable messages and put `addr` in the dead cache.
    /// The drop is counted, never silent: `aceStats` and the periodic stats
    /// events expose `notify.drops` on the originating daemon.
    fn give_up(&mut self, addr: Addr, n: usize) {
        self.drops.add(n as u64);
        self.dead.insert(addr, Instant::now());
    }
}

/// The delivery worker; see [`Notifier::cooperative`].  Spawned as a task
/// on the shared runtime, or run on its own thread by [`Notifier::spawn`].
pub struct NotifierTask {
    rx: Receiver<Outbound>,
    wake: Arc<WakeCell>,
    state: DeliveryState,
}

impl NotifierTask {
    /// One pass: collect arrived replies, then send queued messages.
    /// `Pending` carries the next reply timeout to wake for.
    fn pump(&mut self, waker: &Waker) -> (TaskPoll, Option<Instant>) {
        // Register before draining: a send that lands between the last
        // `try_recv` and the return would otherwise be a lost wakeup.
        self.wake.register(waker);
        self.state.collect(waker);
        let mut sent = 0usize;
        // Owed replies are bounded like the queue: past that, leave
        // messages queued so producers shed instead of memory growing.
        while self.state.in_flight() < NOTIFY_QUEUE_CAPACITY {
            match self.rx.try_recv() {
                Ok(out) => {
                    self.state.depth.set(self.rx.len() as i64);
                    self.state.start(out, waker);
                    sent += 1;
                    if sent >= NOTIFY_BATCH {
                        return (TaskPoll::Again, None);
                    }
                }
                Err(TryRecvError::Empty) => break,
                // Every sender is gone: finish once the owed replies are in
                // (dropping a link with replies owed would lose messages
                // the listener has not read yet).
                Err(TryRecvError::Disconnected) if self.state.in_flight() == 0 => {
                    return (TaskPoll::Complete, None);
                }
                Err(TryRecvError::Disconnected) => break,
            }
        }
        (TaskPoll::Pending, self.state.next_deadline())
    }

    /// The thread-per-daemon worker: the same passes, parking the thread
    /// between them.
    fn run_on_thread(&mut self) {
        let waker = Waker::from(Arc::new(Unpark(std::thread::current())));
        loop {
            match self.pump(&waker) {
                (TaskPoll::Complete, _) => return,
                (TaskPoll::Again, _) => {}
                (TaskPoll::Pending, Some(at)) => {
                    std::thread::park_timeout(at.saturating_duration_since(Instant::now()))
                }
                (TaskPoll::Pending, None) => std::thread::park(),
            }
        }
    }
}

impl RuntimeTask for NotifierTask {
    fn poll(&mut self, cx: &mut TaskContext<'_>) -> TaskPoll {
        let (poll, timeout) = self.pump(cx.waker());
        if let Some(at) = timeout {
            cx.set_timer(at);
        }
        poll
    }
}

/// Wakes a thread parked in [`NotifierTask::run_on_thread`].
struct Unpark(std::thread::Thread);

impl Wake for Unpark {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::SecureLink;
    use crate::runtime::{Runtime, RuntimeMode};
    use ace_lang::Reply;
    use parking_lot::Mutex;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn keypair() -> Arc<KeyPair> {
        Arc::new(KeyPair::generate(&mut rand::thread_rng()))
    }

    fn note(seq: i64) -> CmdLine {
        CmdLine::new("note").arg("seq", seq)
    }

    /// A hand-driven listener at `h:700`: `serve(i, link)` runs for the
    /// `i`-th accepted link, one link at a time, on the accept thread.
    /// Returns the address and the accept count.
    fn listen(
        net: &SimNet,
        serve: impl Fn(usize, SecureLink) + Send + 'static,
    ) -> (Addr, Arc<AtomicUsize>) {
        let addr = Addr::new("h", 700);
        let listener = net.listen(addr.clone()).unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&accepted);
        std::thread::spawn(move || {
            let identity = keypair();
            while let Ok(conn) = listener.accept() {
                let i = count.fetch_add(1, Ordering::SeqCst);
                match SecureLink::accept(conn, &identity) {
                    Ok(link) => serve(i, link),
                    Err(_) => return,
                }
            }
        });
        (addr, accepted)
    }

    /// Answer every command `ok`, recording its `seq` into `seen`.
    fn answer_all(link: &mut SecureLink, seen: &Mutex<Vec<i64>>) {
        while let Ok(cmd) = link.recv_cmd(Duration::from_secs(10)) {
            seen.lock().push(cmd.get_int("seq").unwrap_or(-1));
            if link.send_cmd(&Reply::ok().to_cmdline()).is_err() {
                return;
            }
        }
    }

    fn wait_for(counter: &Counter, n: u64) -> bool {
        let end = Instant::now() + Duration::from_secs(10);
        while counter.get() < n && Instant::now() < end {
            std::thread::sleep(Duration::from_millis(2));
        }
        counter.get() >= n
    }

    #[test]
    fn pipelined_delivery_keeps_fifo_order() {
        for mode in [RuntimeMode::Shared, RuntimeMode::Threads] {
            let net = SimNet::new();
            net.add_host("h");
            let seen = Arc::new(Mutex::new(Vec::new()));
            let log = Arc::clone(&seen);
            let (addr, accepted) = listen(&net, move |_, mut link| answer_all(&mut link, &log));
            let metrics = Arc::new(MetricsRegistry::new());
            let rt = Runtime::new(1);
            let (notifier, worker) = match mode {
                RuntimeMode::Shared => {
                    let (notifier, task) = Notifier::cooperative(
                        net.clone(),
                        "h".into(),
                        keypair(),
                        Arc::clone(&metrics),
                        Vec::new(),
                    );
                    rt.spawn(Box::new(task));
                    (notifier, None)
                }
                RuntimeMode::Threads => {
                    let (notifier, worker) = Notifier::spawn(
                        net.clone(),
                        "h".into(),
                        keypair(),
                        Arc::clone(&metrics),
                        Vec::new(),
                    );
                    (notifier, Some(worker))
                }
            };
            for seq in 0..200 {
                assert!(notifier.send(addr.clone(), note(seq)));
            }
            let delivered = metrics.counter("notify.delivered");
            assert!(wait_for(&delivered, 200), "{mode:?}: {}", delivered.get());
            assert_eq!(*seen.lock(), (0..200).collect::<Vec<_>>(), "{mode:?}");
            assert_eq!(metrics.counter("notify.drops").get(), 0, "{mode:?}");
            assert_eq!(
                accepted.load(Ordering::SeqCst),
                1,
                "{mode:?}: one cached link"
            );
            assert_eq!(metrics.histogram("notify.latency").snapshot().count, 200);
            drop(notifier);
            if let Some(worker) = worker {
                worker.join();
            }
            rt.shutdown();
        }
    }

    #[test]
    fn silent_listener_times_out_into_drops_and_dead_cache() {
        let net = SimNet::new();
        net.add_host("h");
        // Reads everything, answers nothing, and keeps the link open.
        let (addr, accepted) = listen(&net, |_, mut link| {
            while link.recv_cmd(Duration::from_secs(10)).is_ok() {}
        });
        let metrics = MetricsRegistry::new();
        let mut state = DeliveryState::new(&metrics, net, "h".into(), keypair());
        let waker = Waker::noop();
        let began = Instant::now();
        for seq in 0..3 {
            state.start(
                Outbound {
                    addr: addr.clone(),
                    cmd: note(seq),
                },
                waker,
            );
        }
        assert_eq!(state.in_flight(), 3);
        while state.drops.get() < 3 && began.elapsed() < Duration::from_secs(10) {
            state.collect(waker);
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(state.drops.get(), 3, "owed messages must become drops");
        assert!(began.elapsed() >= NOTIFY_CALL_TIMEOUT, "timed out early");
        assert_eq!(state.delivered.get(), 0);
        assert_eq!(state.in_flight(), 0);
        assert!(
            state.dead.contains_key(&addr),
            "listener not in the dead cache"
        );
        // Inside the backoff a new message is dropped without a connect.
        state.start(Outbound { addr, cmd: note(3) }, waker);
        assert_eq!(state.drops.get(), 4);
        assert_eq!(accepted.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn link_killed_mid_flight_is_retried_once_on_a_fresh_link() {
        let net = SimNet::new();
        net.add_host("h");
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        // The first link reads one message and dies without answering; the
        // second answers everything.
        let (addr, accepted) = listen(&net, move |i, mut link| {
            if i == 0 {
                let _ = link.recv_cmd(Duration::from_secs(10));
            } else {
                answer_all(&mut link, &log);
            }
        });
        let metrics = MetricsRegistry::new();
        let mut state = DeliveryState::new(&metrics, net, "h".into(), keypair());
        let waker = Waker::noop();
        for seq in 0..5 {
            state.start(
                Outbound {
                    addr: addr.clone(),
                    cmd: note(seq),
                },
                waker,
            );
        }
        let end = Instant::now() + Duration::from_secs(10);
        while state.delivered.get() < 5 && Instant::now() < end {
            state.collect(waker);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(state.delivered.get(), 5);
        assert_eq!(state.drops.get(), 0);
        assert_eq!(accepted.load(Ordering::SeqCst), 2, "one fresh link");
        assert_eq!(*seen.lock(), vec![0, 1, 2, 3, 4], "re-sent in order");
    }

    fn reg(service: &str, port: u16) -> Registration {
        Registration {
            service: service.into(),
            addr: Addr::new("h", port),
            notify_cmd: format!("on_{service}"),
        }
    }

    #[test]
    fn add_and_match() {
        let mut r = NotificationRegistry::new();
        r.add("ptzMove", reg("recorder", 1));
        r.add("ptzMove", reg("tracker", 2));
        r.add("ptzOn", reg("recorder", 1));
        assert_eq!(r.listeners("ptzMove").len(), 2);
        assert_eq!(r.listeners("ptzOn").len(), 1);
        assert_eq!(r.listeners("other").len(), 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn re_add_replaces() {
        let mut r = NotificationRegistry::new();
        r.add("c", reg("s", 1));
        r.add("c", reg("s", 9));
        assert_eq!(r.listeners("c").len(), 1);
        assert_eq!(r.listeners("c")[0].addr.port, 9);
    }

    #[test]
    fn remove_works() {
        let mut r = NotificationRegistry::new();
        r.add("c", reg("s1", 1));
        r.add("c", reg("s2", 2));
        assert!(r.remove("c", "s1"));
        assert!(!r.remove("c", "s1"));
        assert_eq!(r.listeners("c").len(), 1);
        assert!(r.remove("c", "s2"));
        assert!(r.is_empty());
    }

    #[test]
    fn notification_cmd_carries_provenance_and_args() {
        let registration = reg("recorder", 1);
        let executed = CmdLine::new("ptzMove").arg("x", 3).arg("service", "spoof");
        let n = NotificationRegistry::notification_cmd(&registration, "cam1", &executed);
        assert_eq!(n.name(), "on_recorder");
        assert_eq!(n.get_text("service"), Some("cam1")); // provenance wins
        assert_eq!(n.get_text("cmd"), Some("ptzMove"));
        assert_eq!(n.get_int("x"), Some(3));
    }

    #[test]
    fn notification_cmd_strips_caller_deadline() {
        let registration = reg("recorder", 1);
        let mut executed = CmdLine::new("ptzMove").arg("x", 3);
        executed.set_deadline_ms(25);
        let n = NotificationRegistry::notification_cmd(&registration, "cam1", &executed);
        assert_eq!(n.deadline_ms(), None, "caller budget must not propagate");
        assert_eq!(n.get_int("x"), Some(3));
    }
}

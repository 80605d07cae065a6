//! Offline stand-in for the `crossbeam` crate: a multi-producer
//! multi-consumer channel with clonable senders *and* receivers,
//! disconnect detection, and timed receives — the subset DEFw and the
//! HPC communicator use.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Threads parked in a receive / a blocking send: a notification
        /// is only worth its wake-up syscall when one is waiting.
        recv_waiters: usize,
        send_waiters: usize,
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        recv_ready: Condvar,
        send_ready: Condvar,
        capacity: Option<usize>,
    }

    /// Sending half; cheap to clone.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// Receiving half; cheap to clone (MPMC: clones steal from one queue).
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// The message could not be delivered because all receivers are gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    // Like the real crate: Debug without requiring `T: Debug`, so
    // `send(...).unwrap()` works for any payload.
    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// All senders disconnected and the queue is drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of a non-blocking send.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// A bounded channel is at capacity; the message comes back.
        Full(T),
        /// All receivers are gone; the message comes back.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// Recovers the undelivered message.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }

        /// Whether the failure was a full queue (backpressure) rather than
        /// a closed channel.
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }
    }

    // Debug without requiring `T: Debug`, like `SendError`.
    impl<T> std::fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                TrySendError::Full(_) => f.write_str("TrySendError::Full(..)"),
                TrySendError::Disconnected(_) => f.write_str("TrySendError::Disconnected(..)"),
            }
        }
    }

    /// Outcome of a timed receive.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived within the deadline.
        Timeout,
        /// All senders disconnected and the queue is drained.
        Disconnected,
    }

    /// Outcome of a non-blocking receive.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is currently empty.
        Empty,
        /// All senders disconnected and the queue is drained.
        Disconnected,
    }

    /// Creates a channel with no capacity bound.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a channel holding at most `cap` queued messages; sends block
    /// while full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap))
    }

    fn with_capacity<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                recv_waiters: 0,
                send_waiters: 0,
            }),
            recv_ready: Condvar::new(),
            send_ready: Condvar::new(),
            capacity,
        });
        (Sender(Arc::clone(&chan)), Receiver(chan))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap_or_else(|e| e.into_inner()).senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            state.senders -= 1;
            if state.senders == 0 && state.recv_waiters > 0 {
                drop(state);
                self.0.recv_ready.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.state.lock().unwrap_or_else(|e| e.into_inner()).receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            state.receivers -= 1;
            if state.receivers == 0 && state.send_waiters > 0 {
                drop(state);
                self.0.send_ready.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues a message, blocking while a bounded channel is full.
        /// Fails only when every receiver is gone.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if state.receivers == 0 {
                    return Err(SendError(value));
                }
                match self.0.capacity {
                    Some(cap) if state.queue.len() >= cap => {
                        state.send_waiters += 1;
                        state = self
                            .0
                            .send_ready
                            .wait(state)
                            .unwrap_or_else(|e| e.into_inner());
                        state.send_waiters -= 1;
                    }
                    _ => break,
                }
            }
            state.queue.push_back(value);
            let wake = state.recv_waiters > 0;
            drop(state);
            if wake {
                self.0.recv_ready.notify_one();
            }
            Ok(())
        }

        /// Non-blocking send: fails immediately with the message when a
        /// bounded channel is full (backpressure) or every receiver is
        /// gone, instead of parking the caller.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = self.0.capacity {
                if state.queue.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            state.queue.push_back(value);
            let wake = state.recv_waiters > 0;
            drop(state);
            if wake {
                self.0.recv_ready.notify_one();
            }
            Ok(())
        }

        /// Number of currently queued messages.
        pub fn len(&self) -> usize {
            self.0
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(value) = state.queue.pop_front() {
                    let wake = state.send_waiters > 0;
                    drop(state);
                    if wake {
                        self.0.send_ready.notify_one();
                    }
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.recv_waiters += 1;
                state = self
                    .0
                    .recv_ready
                    .wait(state)
                    .unwrap_or_else(|e| e.into_inner());
                state.recv_waiters -= 1;
            }
        }

        /// Blocks until a message arrives, every sender disconnects, or the
        /// timeout elapses.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(value) = state.queue.pop_front() {
                    let wake = state.send_waiters > 0;
                    drop(state);
                    if wake {
                        self.0.send_ready.notify_one();
                    }
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.recv_waiters += 1;
                let (next, _) = self
                    .0
                    .recv_ready
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                state = next;
                state.recv_waiters -= 1;
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.state.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(value) = state.queue.pop_front() {
                let wake = state.send_waiters > 0;
                drop(state);
                if wake {
                    self.0.send_ready.notify_one();
                }
                return Ok(value);
            }
            if state.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Number of currently queued messages.
        pub fn len(&self) -> usize {
            self.0
                .state
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .queue
                .len()
        }

        /// Whether the queue is currently empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;
    use std::time::Duration;

    #[test]
    fn mpmc_round_trip() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        assert_eq!(a + b, 3);
    }

    #[test]
    fn timeout_and_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = bounded(1);
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn try_send_reports_full_and_disconnected() {
        let (tx, rx) = bounded(2);
        assert!(tx.try_send(1).is_ok());
        assert!(tx.try_send(2).is_ok());
        let err = tx.try_send(3).unwrap_err();
        assert!(err.is_full());
        assert_eq!(err.into_inner(), 3);
        assert_eq!(tx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert!(tx.try_send(3).is_ok());
        drop(rx);
        let err = tx.try_send(4).unwrap_err();
        assert!(!err.is_full());
        assert_eq!(err.into_inner(), 4);
    }

    #[test]
    fn parked_sender_wakes_on_recv_and_on_disconnect() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let tx2 = tx.clone();
        let blocked = std::thread::spawn(move || tx2.send(2));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(blocked.join().unwrap(), Ok(()));
        // Full again; the parked send fails once the receiver is gone.
        let blocked = std::thread::spawn(move || tx.send(3));
        std::thread::sleep(Duration::from_millis(20));
        drop(rx);
        assert_eq!(blocked.join().unwrap(), Err(SendError(3)));
    }

    #[test]
    fn parked_receiver_wakes_on_disconnect() {
        let (tx, rx) = unbounded::<u8>();
        let rx2 = rx.clone();
        let timed = std::thread::spawn(move || rx2.recv_timeout(Duration::from_secs(30)));
        let blocked = std::thread::spawn(move || rx.recv());
        std::thread::sleep(Duration::from_millis(20));
        drop(tx);
        assert_eq!(timed.join().unwrap(), Err(RecvTimeoutError::Disconnected));
        assert_eq!(blocked.join().unwrap(), Err(RecvError));
    }

    #[test]
    fn workers_drain_shared_queue() {
        let (tx, rx) = unbounded();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut got = 0u64;
                    while let Ok(v) = rx.recv() {
                        got += v;
                    }
                    got
                })
            })
            .collect();
        for v in 1..=100u64 {
            tx.send(v).unwrap();
        }
        drop(tx);
        drop(rx);
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(total, 5050);
    }
}

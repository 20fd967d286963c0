//! Offline stand-in for the `crossbeam` crate.
//!
//! Only the pieces the workspace uses are provided: `channel::bounded` and
//! `channel::unbounded` with `try_send` / `try_recv`, where both endpoints
//! are `Send + Sync` (std's mpsc receiver is not `Sync`, which the
//! simulated-MPI communicator requires). The implementation is a
//! mutex-protected ring whose length is also published in an atomic, so a
//! `try_recv` on an empty channel is one load and takes no lock — a
//! polling receiver never contends with its sender for the mutex.

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    struct Chan<T> {
        queue: Mutex<VecDeque<T>>,
        /// `queue.len()`, stored (`Release`) under the lock after every
        /// push and pop and loaded (`Acquire`) by `try_recv` before it
        /// decides whether to lock; the data itself is read under the lock.
        len: AtomicUsize,
        capacity: usize,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Error from [`Sender::try_send`].
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity; the message is handed back.
        Full(T),
        /// All receivers are gone; the message is handed back.
        Disconnected(T),
    }

    /// Error from [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing buffered right now.
        Empty,
        /// All senders are gone and the buffer is drained.
        Disconnected,
    }

    /// Sending half of a bounded channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// Receiving half of a bounded channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Sender<T> {
        /// Enqueue without blocking; `Full` hands the message back.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            if self.chan.receivers.load(Ordering::Acquire) == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            let mut q = self.chan.queue.lock().unwrap_or_else(|e| e.into_inner());
            if q.len() >= self.chan.capacity {
                return Err(TrySendError::Full(msg));
            }
            q.push_back(msg);
            self.chan.len.store(q.len(), Ordering::Release);
            Ok(())
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            // Empty with a live sender: answer without the lock. (A gone
            // sender takes the locked path, which orders its last push
            // before the disconnect it reports.)
            if self.chan.len.load(Ordering::Acquire) == 0
                && self.chan.senders.load(Ordering::Acquire) > 0
            {
                return Err(TryRecvError::Empty);
            }
            let mut q = self.chan.queue.lock().unwrap_or_else(|e| e.into_inner());
            let popped = q.pop_front();
            self.chan.len.store(q.len(), Ordering::Release);
            match popped {
                Some(m) => Ok(m),
                None if self.chan.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Sender<T> {
            self.chan.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Receiver<T> {
            self.chan.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            self.chan.senders.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.chan.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    /// Create a bounded channel holding at most `capacity` messages.
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            len: AtomicUsize::new(0),
            capacity: capacity.max(1),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    /// Create a channel with no capacity limit; `try_send` never returns
    /// [`TrySendError::Full`].
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            queue: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            capacity: usize::MAX,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender { chan: chan.clone() }, Receiver { chan })
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn roundtrip_and_capacity() {
            let (tx, rx) = bounded(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(rx.try_recv(), Ok(1));
            tx.try_send(3).unwrap();
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Ok(3));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn unbounded_never_fills() {
            let (tx, rx) = unbounded();
            for k in 0..10_000 {
                tx.try_send(k).unwrap();
            }
            for k in 0..10_000 {
                assert_eq!(rx.try_recv(), Ok(k));
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_is_observed() {
            let (tx, rx) = bounded::<i32>(1);
            drop(rx);
            assert_eq!(tx.try_send(1), Err(TrySendError::Disconnected(1)));
            let (tx, rx) = bounded::<i32>(1);
            tx.try_send(7).unwrap();
            drop(tx);
            assert_eq!(rx.try_recv(), Ok(7));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        }

        #[test]
        fn a_push_is_always_seen_by_a_polling_thread() {
            // One message at a time: the sender waits until the poller has
            // taken each one before pushing the next, so the poller must
            // see a push through the published length alone — no later
            // push ever comes to bump it. A lost publication hangs here
            // until the deadline fails the test.
            const N: usize = 20_000;
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            let (tx, rx) = unbounded();
            let taken = AtomicUsize::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    for k in 0..N {
                        tx.try_send(k).unwrap();
                        while taken.load(Ordering::Acquire) <= k {
                            assert!(std::time::Instant::now() < deadline, "push {k} never seen");
                            std::hint::spin_loop();
                        }
                    }
                });
                s.spawn(|| {
                    for k in 0..N {
                        loop {
                            match rx.try_recv() {
                                Ok(v) => {
                                    assert_eq!(v, k);
                                    break;
                                }
                                Err(e) => {
                                    assert_eq!(e, TryRecvError::Empty);
                                    assert!(
                                        std::time::Instant::now() < deadline,
                                        "push {k} never seen"
                                    );
                                    std::hint::spin_loop();
                                }
                            }
                        }
                        taken.store(k + 1, Ordering::Release);
                    }
                });
            });
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn endpoints_are_shareable_across_threads() {
            let (tx, rx) = bounded(64);
            std::thread::scope(|s| {
                s.spawn(|| {
                    for k in 0..100 {
                        while tx.try_send(k).is_err() {
                            std::thread::yield_now();
                        }
                    }
                });
                s.spawn(|| {
                    let mut got = 0;
                    while got < 100 {
                        if rx.try_recv().is_ok() {
                            got += 1;
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            });
        }
    }
}

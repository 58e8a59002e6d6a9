//! Dynamically-typed message payloads.
//!
//! Protocol crates each define their own message enums; the simulator moves
//! them around as cheaply-clonable, dynamically-typed [`Payload`] handles.
//! Receivers recover the concrete type with [`Payload::downcast_ref`].
//! A `Payload` is an `Rc<dyn Any>`: cloning it for a multicast fan-out or
//! a relay bumps a count, and the message drops with its last handle.
//! `Rc` makes it neither `Send` nor `Sync`, so a handle cannot leave the
//! thread that runs its `Sim`:
//!
//! ```compile_fail
//! let p = simnet::payload::Payload::new(7u32);
//! std::thread::spawn(move || drop(p)); // `Payload` is not `Send`
//! ```
//!
//! Until this representation replaced it, payloads came from a
//! thread-local bump arena with size-class free lists. `perf_smoke
//! --paired` (bare rings, events/s of the `Rc` build over the arena's,
//! runs of 41 interleaved pairs on a 2-core x86-64 VM) never resolved a
//! difference: 0.958× in each of three runs, then 0.992× pinned to one
//! core (quartiles 0.957–1.017×). Measured again when the arena went,
//! pinned to one core: 0.957× for the arena alone (quartiles 0.891–1.039×, the
//! `Rc` build faster in 14 of 41 pairs), and 0.971× / 0.958× / 0.975×
//! with the datagram cost cache also gone (quartiles 0.872–1.029×,
//! 0.896–1.031×, 0.840–1.146×). The arena was the only code in the
//! workspace outside safe Rust, so it went.

use std::any::Any;
use std::fmt;
use std::rc::Rc;

/// A reference-counted, dynamically-typed message body. Not
/// `Send`/`Sync` (module docs).
#[derive(Clone)]
pub struct Payload(Rc<dyn Any>);

impl Payload {
    /// Wraps a concrete message value.
    pub fn new<T: Any>(value: T) -> Payload {
        Payload(Rc::new(value))
    }

    /// Returns a reference to the payload if it is a `T`.
    #[inline]
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref()
    }

    /// Whether the payload is a `T`.
    #[inline]
    pub fn is<T: Any>(&self) -> bool {
        self.0.is::<T>()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Payload(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    struct Ping(u32);

    #[test]
    fn downcast_recovers_value() {
        let p = Payload::new(Ping(7));
        assert!(p.is::<Ping>());
        assert_eq!(p.downcast_ref::<Ping>(), Some(&Ping(7)));
        assert!(p.downcast_ref::<String>().is_none());
    }

    #[test]
    fn clone_is_shallow() {
        let p = Payload::new(Ping(9));
        let q = p.clone();
        assert_eq!(q.downcast_ref::<Ping>().unwrap().0, 9);
    }

    #[test]
    fn value_drops_exactly_once_on_last_handle() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let alive = Arc::new(AtomicBool::new(true));
        struct Guard(Arc<AtomicBool>);
        impl Drop for Guard {
            fn drop(&mut self) {
                assert!(self.0.swap(false, Ordering::SeqCst), "double drop");
            }
        }
        let p = Payload::new(Guard(alive.clone()));
        let q = p.clone();
        drop(p);
        assert!(alive.load(Ordering::SeqCst), "dropped while a clone was live");
        drop(q);
        assert!(!alive.load(Ordering::SeqCst), "value not dropped with last handle");
    }

    #[test]
    fn zero_sized_payloads_work() {
        #[derive(Debug, PartialEq)]
        struct Marker;
        let p = Payload::new(Marker);
        assert_eq!(p.downcast_ref::<Marker>(), Some(&Marker));
    }
}

//! Deterministic fault injection for the rewrite engine.
//!
//! Robustness claims are only as good as their tests. A [`FaultPlan`] lets
//! a harness make specific rules misbehave at specific derivation steps —
//! fail outright, or return a pathologically inflated result — and then
//! assert that the governed engine *contains* the damage: the derivation
//! continues (or stops gracefully), the failure is accounted in the
//! [`crate::budget::RewriteReport`], and repeat offenders are quarantined.
//!
//! Plans are plain data and the engine consults them deterministically, so
//! every injected failure reproduces exactly.

/// What the injected fault does when it triggers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The rule application errors out (as if its body mentioned an
    /// unbound variable).
    Fail,
    /// The rule "succeeds" but wraps its result in `n` extra identity
    /// layers, inflating the term — exercises the size governor.
    Oversize(usize),
    /// The rule *panics* mid-application, simulating a poison rule whose
    /// implementation has a genuine bug. Unlike [`FaultKind::Fail`] this is
    /// not a contained error: it unwinds out of the engine and must be
    /// caught by the caller (see `try_*` entry points and the service's
    /// `catch_unwind` worker isolation). The panic message is
    /// [`POISON_PANIC_PREFIX`] followed by the rule id, so the catcher can
    /// attribute the failure to its rule; it is staged in a reusable
    /// thread-local buffer and the payload itself is a zero-sized marker,
    /// so panicking allocates nothing per failure (see [`poison_panic`]).
    Panic,
}

/// Prefix of the panic message produced by [`FaultKind::Panic`]; the rule
/// id follows. [`poison_rule_id`] parses it back out.
pub const POISON_PANIC_PREFIX: &str = "poison rule panic: ";

/// Zero-sized payload of a [`poison_panic`]. The message lives in
/// [`POISON_PAYLOAD`] on the panicking thread; boxing a ZST for
/// `panic_any` does not allocate, so a service worker absorbing a stream
/// of poison panics formats no fresh `String` per failure.
struct PoisonPayload;

std::thread_local! {
    /// Reusable per-thread (per service worker) panic-message buffer for
    /// [`poison_panic`]. Cleared and refilled in place on every poison
    /// panic, read back by [`poison_rule_id`] / [`CaughtPanic::from_payload`]
    /// — which therefore must run on the thread that panicked, as every
    /// `try_*` boundary and the panic hook do (`catch_unwind` runs on the
    /// unwinding thread).
    static POISON_PAYLOAD: std::cell::RefCell<String> =
        const { std::cell::RefCell::new(String::new()) };
}

/// Panic, attributing the failure to `rule_id`. Called by both engines
/// when a [`FaultKind::Panic`] fault triggers. Allocation-free after the
/// first poison panic on a thread: the message is rebuilt in place in
/// `POISON_PAYLOAD` and the unwind payload is the zero-sized
/// `PoisonPayload` marker.
pub fn poison_panic(rule_id: &str) -> ! {
    POISON_PAYLOAD.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        buf.push_str(POISON_PANIC_PREFIX);
        buf.push_str(rule_id);
    });
    std::panic::panic_any(PoisonPayload)
}

/// Extract the poisoned rule id from a caught panic payload, if the panic
/// came from [`FaultKind::Panic`]. Also recognizes plain `String` /
/// `&'static str` payloads carrying [`POISON_PANIC_PREFIX`], so callers
/// simulating poison rules with ordinary `panic!` messages classify the
/// same way.
pub fn poison_rule_id(payload: &(dyn std::any::Any + Send)) -> Option<String> {
    if payload.downcast_ref::<PoisonPayload>().is_some() {
        return POISON_PAYLOAD.with(|buf| {
            buf.borrow()
                .strip_prefix(POISON_PANIC_PREFIX)
                .map(str::to_string)
        });
    }
    let msg = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&'static str>().copied())?;
    msg.strip_prefix(POISON_PANIC_PREFIX).map(str::to_string)
}

/// A panic caught at a `try_*` engine boundary (see
/// [`crate::engine::try_rewrite_fix_with`]): the best-effort message plus,
/// when the panic came from a [`FaultKind::Panic`] fault, the rule it is
/// attributed to — which is what a circuit breaker charges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaughtPanic {
    /// The rule the panic is attributed to, when identifiable.
    pub rule_id: Option<String>,
    /// The panic message (or a placeholder for opaque payloads).
    pub message: String,
}

impl CaughtPanic {
    /// Classify a payload returned by `std::panic::catch_unwind`. Must run
    /// on the thread that panicked (true at every `try_*` boundary): a
    /// poison payload is a marker whose message lives in the thread-local
    /// `POISON_PAYLOAD` buffer.
    pub fn from_payload(payload: Box<dyn std::any::Any + Send>) -> Self {
        if payload.downcast_ref::<PoisonPayload>().is_some() {
            return POISON_PAYLOAD.with(|buf| {
                let buf = buf.borrow();
                CaughtPanic {
                    rule_id: buf.strip_prefix(POISON_PANIC_PREFIX).map(str::to_string),
                    message: buf.clone(),
                }
            });
        }
        let rule_id = poison_rule_id(payload.as_ref());
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| {
                payload
                    .downcast_ref::<&'static str>()
                    .map(|s| s.to_string())
            })
            .unwrap_or_else(|| "opaque panic payload".to_string());
        CaughtPanic { rule_id, message }
    }
}

impl std::fmt::Display for CaughtPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.rule_id {
            Some(id) => write!(f, "panic in rule {id}: {}", self.message),
            None => write!(f, "panic: {}", self.message),
        }
    }
}

/// Install (once, process-wide) a panic-hook filter that silences the
/// default backtrace spam for [`FaultKind::Panic`] payloads — they are
/// *expected* panics, caught and classified at the `try_*` boundaries —
/// while delegating every other panic to the previously installed hook.
pub fn silence_poison_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if poison_rule_id(info.payload()).is_none() {
                prev(info);
            }
        }));
    });
}

/// Which derivation steps the fault triggers on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepSelector {
    /// Every application attempt.
    Always,
    /// Only the listed step indices (0-based, counted in completed rewrite
    /// steps at the moment the rule is attempted).
    Steps(Vec<usize>),
    /// Steps `0, n, 2n, …`.
    EveryNth(usize),
}

impl StepSelector {
    /// Does this selector cover `step`?
    pub fn covers(&self, step: usize) -> bool {
        match self {
            StepSelector::Always => true,
            StepSelector::Steps(v) => v.contains(&step),
            StepSelector::EveryNth(n) => *n != 0 && step.is_multiple_of(*n),
        }
    }
}

/// One injected fault: a rule, a step selector, and an effect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// Id of the rule to sabotage.
    pub rule_id: String,
    /// When it triggers.
    pub at: StepSelector,
    /// What happens.
    pub kind: FaultKind,
}

/// A set of injected faults. The empty plan (the default) injects nothing
/// and costs one slice scan per rule application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// True iff no faults are registered.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Add a fault (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Add a fault.
    pub fn add(&mut self, spec: FaultSpec) {
        self.specs.push(spec);
    }

    /// Convenience: `rule_id` always fails.
    pub fn failing(rule_id: &str) -> Self {
        FaultPlan::new().with(FaultSpec {
            rule_id: rule_id.to_string(),
            at: StepSelector::Always,
            kind: FaultKind::Fail,
        })
    }

    /// The fault (if any) active for `rule_id` at derivation step `step`.
    /// The first matching spec wins.
    pub fn fault_for(&self, rule_id: &str, step: usize) -> Option<&FaultKind> {
        self.specs
            .iter()
            .find(|s| s.rule_id == rule_id && s.at.covers(step))
            .map(|s| &s.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poison_panic_payload_classifies_and_buffer_is_reused() {
        silence_poison_panics();
        // First poison panic: marker payload, message from the thread-local
        // buffer, rule id parsed back out.
        let err = std::panic::catch_unwind(|| poison_panic("app")).unwrap_err();
        assert_eq!(poison_rule_id(err.as_ref()), Some("app".to_string()));
        let caught = CaughtPanic::from_payload(err);
        assert_eq!(caught.rule_id.as_deref(), Some("app"));
        assert_eq!(caught.message, format!("{POISON_PANIC_PREFIX}app"));
        // Second panic on the same thread reuses the buffer in place.
        let err = std::panic::catch_unwind(|| poison_panic("e121")).unwrap_err();
        let caught = CaughtPanic::from_payload(err);
        assert_eq!(caught.rule_id.as_deref(), Some("e121"));
        // Plain string payloads with the prefix still classify (callers
        // simulating poison rules with ordinary panic! messages).
        let err = std::panic::catch_unwind(|| panic!("{POISON_PANIC_PREFIX}9")).unwrap_err();
        assert_eq!(poison_rule_id(err.as_ref()), Some("9".to_string()));
        // Unrelated panics stay unattributed.
        let err = std::panic::catch_unwind(|| panic!("boom")).unwrap_err();
        assert_eq!(poison_rule_id(err.as_ref()), None);
        assert_eq!(CaughtPanic::from_payload(err).rule_id, None);
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.fault_for("11", 0), None);
    }

    #[test]
    fn selectors() {
        assert!(StepSelector::Always.covers(17));
        assert!(StepSelector::Steps(vec![1, 3]).covers(3));
        assert!(!StepSelector::Steps(vec![1, 3]).covers(2));
        assert!(StepSelector::EveryNth(4).covers(8));
        assert!(!StepSelector::EveryNth(4).covers(9));
        assert!(!StepSelector::EveryNth(0).covers(0), "n=0 never fires");
    }

    #[test]
    fn first_matching_spec_wins() {
        let p = FaultPlan::new()
            .with(FaultSpec {
                rule_id: "11".into(),
                at: StepSelector::Steps(vec![2]),
                kind: FaultKind::Oversize(10),
            })
            .with(FaultSpec {
                rule_id: "11".into(),
                at: StepSelector::Always,
                kind: FaultKind::Fail,
            });
        assert_eq!(p.fault_for("11", 2), Some(&FaultKind::Oversize(10)));
        assert_eq!(p.fault_for("11", 1), Some(&FaultKind::Fail));
        assert_eq!(p.fault_for("12", 1), None);
    }
}

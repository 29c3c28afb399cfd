//! Request-scoped trace context.
//!
//! A [`TraceContext`] names one causal tree (`trace_id`) and one position
//! inside it (`span_id`). The client mints a root context per logical
//! call, derives one child per attempt, and stamps it on the wire; the
//! server installs the received context via [`install_context`] on the
//! connection handler thread that parses and evaluates the request, for
//! the whole request, after which every span recorded through the
//! existing [`crate::span!`] machinery links itself into the tree: the
//! span's parent is whatever context is current when it starts, and the
//! span becomes the current context for its own dynamic extent.
//!
//! Ids are derived with `splitmix64`, so a pinned seed yields a fully
//! deterministic id sequence — the chaos harness relies on this to assert
//! complete trace trees for replayed fault schedules.

use std::cell::Cell;
use std::fmt;

use serde::{Deserialize, Error, Serialize, Value};

/// One position in one causal tree: the trace id shared by every span of
/// a logical request, plus the id of the span that is current here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The id shared by every record of one logical request.
    pub trace_id: u64,
    /// The id of the current (parent-to-be) span within the trace.
    pub span_id: u64,
}

/// The identity of one finished span within a trace, as recorded by the
/// sink and the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanIds {
    /// The trace the span belongs to.
    pub trace_id: u64,
    /// The span's own id.
    pub span_id: u64,
    /// The id of the enclosing span (0 for a root).
    pub parent_id: u64,
}

/// Sebastiano Vigna's `splitmix64` — the one mixer behind trace ids,
/// fault decisions, retry jitter, idempotency keys and the fleet
/// generator, so seeded runs stay reproducible end to end.
#[must_use]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Domain separator so trace ids never collide with idempotency keys
/// derived from the same seed material.
const TRACE_SALT: u64 = 0x7472_6163_6520_6964; // "trace id"

impl TraceContext {
    /// Mints a deterministic root context from `seed`. The root span id
    /// is derived from the trace id, so one seed fixes the whole tree.
    #[must_use]
    pub fn root(seed: u64) -> Self {
        let trace_id = splitmix64(seed ^ TRACE_SALT) | 1; // never zero
        Self {
            trace_id,
            span_id: splitmix64(trace_id),
        }
    }

    /// Derives the `index`-th child context: same trace, a new span id
    /// deterministic in (parent span, index). The retrying client uses
    /// one child per attempt so retries appear as siblings.
    #[must_use]
    pub fn child(&self, index: u64) -> Self {
        Self {
            trace_id: self.trace_id,
            span_id: splitmix64(self.span_id ^ splitmix64(index.wrapping_add(1))),
        }
    }

    /// The wire form: two fixed-width lowercase hex ids joined by `:`.
    #[must_use]
    pub fn wire(&self) -> String {
        format!("{:016x}:{:016x}", self.trace_id, self.span_id)
    }

    /// Parses the [`Self::wire`] form. Returns `None` on anything else —
    /// the protocol decoder maps that to a malformed-request error, never
    /// a panic.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let (trace, span) = text.split_once(':')?;
        if trace.len() != 16 || span.len() != 16 {
            return None;
        }
        let trace_id = u64::from_str_radix(trace, 16).ok()?;
        let span_id = u64::from_str_radix(span, 16).ok()?;
        Some(Self { trace_id, span_id })
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.wire())
    }
}

impl Serialize for TraceContext {
    fn to_value(&self) -> Value {
        Value::Str(self.wire())
    }
}

impl Deserialize for TraceContext {
    fn from_value(value: &Value) -> Result<Self, Error> {
        match value {
            Value::Str(text) => Self::parse(text).ok_or_else(|| {
                Error::custom(format!(
                    "malformed trace context `{text}` (want 16-hex:16-hex)"
                ))
            }),
            other => Err(Error::invalid("string trace context", other)),
        }
    }
}

thread_local! {
    /// The context spans on this thread link under. `None` outside any
    /// request — spans then record without trace ids, exactly as before.
    static CURRENT: Cell<Option<TraceContext>> = const { Cell::new(None) };
    /// Monotonic per-thread counter salting derived span ids so two
    /// same-named spans under one parent get distinct ids.
    static SPAN_SEQ: Cell<u64> = const { Cell::new(0) };
}

/// The trace context current on this thread, if any.
#[must_use]
pub fn current_context() -> Option<TraceContext> {
    CURRENT.with(Cell::get)
}

/// Installs `ctx` as this thread's current context, returning a guard
/// that restores the previous context (possibly none) on drop. The
/// server installs the wire-received context around each request;
/// `SweepExecutor` re-installs the caller's context inside its scoped
/// worker threads.
#[must_use = "the context is uninstalled when the guard drops"]
pub fn install_context(ctx: TraceContext) -> ContextGuard {
    let prev = CURRENT.with(|current| current.replace(Some(ctx)));
    ContextGuard { prev }
}

/// Restores the previously current context when dropped; see
/// [`install_context`].
#[derive(Debug)]
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| current.set(self.prev));
    }
}

/// Allocates ids for a span starting now under the current context:
/// `None` when no context is installed (untraced span), otherwise the
/// span's own ids with its parent filled in. The new span becomes the
/// current context so nested spans chain under it; the caller must pass
/// the returned previous value to [`exit_span`] on drop.
pub(crate) fn enter_span() -> (Option<SpanIds>, Option<Option<TraceContext>>) {
    let Some(parent) = current_context() else {
        return (None, None);
    };
    let seq = SPAN_SEQ.with(|seq| {
        let n = seq.get().wrapping_add(1);
        seq.set(n);
        n
    });
    let own = TraceContext {
        trace_id: parent.trace_id,
        span_id: splitmix64(parent.span_id ^ splitmix64(seq)),
    };
    let prev = CURRENT.with(|current| current.replace(Some(own)));
    (
        Some(SpanIds {
            trace_id: own.trace_id,
            span_id: own.span_id,
            parent_id: parent.span_id,
        }),
        Some(prev),
    )
}

/// Restores the context that was current before [`enter_span`].
pub(crate) fn exit_span(prev: Option<Option<TraceContext>>) {
    if let Some(prev) = prev {
        CURRENT.with(|current| current.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_form_round_trips() {
        let ctx = TraceContext::root(2011);
        let back = TraceContext::parse(&ctx.wire()).expect("parses");
        assert_eq!(back, ctx);
        assert_eq!(ctx.wire().len(), 33);
    }

    #[test]
    fn parse_rejects_damage() {
        assert!(TraceContext::parse("").is_none());
        assert!(TraceContext::parse("abc").is_none());
        assert!(TraceContext::parse("0123456789abcdef").is_none());
        assert!(TraceContext::parse("0123456789abcdef:0123").is_none());
        assert!(TraceContext::parse("0123456789abcdeg:0123456789abcdef").is_none());
        assert!(TraceContext::parse(&format!("{}:extra", "0".repeat(16))).is_none());
    }

    #[test]
    fn roots_and_children_are_deterministic() {
        let a = TraceContext::root(7);
        let b = TraceContext::root(7);
        assert_eq!(a, b);
        assert_ne!(a, TraceContext::root(8));
        assert_eq!(a.child(0), b.child(0));
        assert_ne!(a.child(0).span_id, a.child(1).span_id);
        assert_eq!(a.child(1).trace_id, a.trace_id);
    }

    #[test]
    fn install_nests_and_restores() {
        assert!(current_context().is_none());
        let outer = TraceContext::root(1);
        {
            let _g = install_context(outer);
            assert_eq!(current_context(), Some(outer));
            let inner = outer.child(0);
            {
                let _g2 = install_context(inner);
                assert_eq!(current_context(), Some(inner));
            }
            assert_eq!(current_context(), Some(outer));
        }
        assert!(current_context().is_none());
    }

    #[test]
    fn serde_value_is_a_string() {
        let ctx = TraceContext::root(42);
        let json = serde_json::to_string(&ctx).unwrap();
        assert!(json.starts_with('"') && json.ends_with('"'), "{json}");
        let back: TraceContext = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ctx);
        assert!(serde_json::from_str::<TraceContext>("\"nope\"").is_err());
        assert!(serde_json::from_str::<TraceContext>("17").is_err());
    }
}

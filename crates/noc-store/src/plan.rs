//! The one fault plan and the one injector every injectable layer shares.
//!
//! A layer (storage writes, connection operations) numbers its operations
//! from 0 and asks an [`Injector`] what to do at each index. The answer
//! comes from a [`Plan`]: explicit `op:kind[,op:kind...]` events, a seed
//! for pseudo-random soak faults, or both — explicit events win at their
//! op index and the seed fills the rest. A layer's [`Kind`] says only what
//! is its own: the names of its two environment knobs, how one kind
//! parses and prints, its seeded draw table, and which two kinds set and
//! clear the sticky latch (a stuck disk, a partitioned network).
//!
//! [`Plan::canonical`] renders a plan to the exact string that reproduces
//! it and [`Plan::digest`] fingerprints it for repro records — the same
//! discipline as the simulator's `FaultSchedule`. Binaries validate the
//! knobs eagerly (exit status 2 on garbage) with
//! [`Plan::from_process_env`].

use std::collections::BTreeMap;
use std::fmt::Debug;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What one layer's fault kind must say for itself; [`Plan`] and
/// [`Injector`] own everything else.
pub trait Kind: Copy + Eq + Debug {
    /// Environment knob carrying explicit `op:kind` events.
    const SCHEDULE_ENV: &'static str;
    /// Environment knob carrying the soak seed.
    const SEED_ENV: &'static str;
    /// From this op onward every op fails with this kind, until [`Kind::HEAL`].
    const STICKY: Self;
    /// Clears [`Kind::STICKY`]; the healing op itself succeeds.
    const HEAL: Self;

    /// Parses `name` with its optional `@arg` (see [`no_arg`], [`num_arg`]).
    fn parse(name: &str, arg: Option<&str>) -> Result<Self, String>;

    /// The exact text [`Kind::parse`] reads back.
    fn canonical(self) -> String;

    /// The seeded draw table: `pick` is 0..4, `arg` the remaining random
    /// bits. Old repro seeds replay only while this stays bit-identical.
    fn draw(pick: u64, arg: u64) -> Self;
}

/// `kind`, provided `name` was written without an `@arg`.
pub fn no_arg<K>(name: &str, arg: Option<&str>, kind: K) -> Result<K, String> {
    match arg {
        None => Ok(kind),
        Some(a) => Err(format!("fault kind '{name}' takes no '@{a}' argument")),
    }
}

/// The mandatory numeric `@arg` of `name`; `unit` and `noun` word the two
/// error messages ("needs '@<unit>'", "bad <noun> '...'").
pub fn num_arg<T: FromStr>(
    name: &str,
    arg: Option<&str>,
    unit: &str,
    noun: &str,
) -> Result<T, String> {
    let a = arg.ok_or_else(|| format!("fault kind '{name}' needs '@<{unit}>'"))?;
    a.parse().map_err(|_| format!("bad {noun} '{a}'"))
}

/// A validated, canonicalizable fault plan over kind `K`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan<K> {
    events: BTreeMap<u64, K>,
    seed: Option<u64>,
}

impl<K> Default for Plan<K> {
    fn default() -> Plan<K> {
        Plan {
            events: BTreeMap::new(),
            seed: None,
        }
    }
}

impl<K: Kind> Plan<K> {
    /// Parses an explicit `op:kind[,op:kind...]` schedule string.
    pub fn parse_schedule(s: &str) -> Result<Plan<K>, String> {
        if s.trim().is_empty() {
            return Err("empty fault schedule".to_string());
        }
        let mut events = BTreeMap::new();
        for part in s.split(',') {
            let part = part.trim();
            let (op_s, code) = part
                .split_once(':')
                .ok_or_else(|| format!("bad fault event '{part}' (expected op:kind)"))?;
            let op: u64 = op_s
                .trim()
                .parse()
                .map_err(|_| format!("bad op index '{op_s}' in '{part}'"))?;
            let code = code.trim();
            let kind = match code.split_once('@') {
                Some((name, arg)) => K::parse(name, Some(arg)),
                None => K::parse(code, None),
            }?;
            if events.insert(op, kind).is_some() {
                return Err(format!("duplicate fault event for op {op}"));
            }
        }
        Ok(Plan { events, seed: None })
    }

    /// Builds a plan from the values of the two environment knobs (either
    /// may be unset). `Ok(None)` means no fault injection is configured.
    /// Errors are the messages binaries print before exiting with status 2.
    pub fn from_env(schedule: Option<&str>, seed: Option<&str>) -> Result<Option<Plan<K>>, String> {
        let mut plan = match schedule {
            Some(s) => {
                Some(Plan::parse_schedule(s).map_err(|e| format!("{}: {e}", K::SCHEDULE_ENV))?)
            }
            None => None,
        };
        if let Some(s) = seed {
            let n: u64 = s
                .trim()
                .parse()
                .map_err(|_| format!("{}: '{s}' is not an unsigned integer", K::SEED_ENV))?;
            plan.get_or_insert_with(Plan::default).seed = Some(n);
        }
        Ok(plan)
    }

    /// [`Plan::from_env`] over this process's [`Kind::SCHEDULE_ENV`] /
    /// [`Kind::SEED_ENV`]: unset means "no fault injection", garbage is an
    /// error for the caller to turn into exit status 2 — never a silent
    /// fallback to a fault-free layer (a soak that silently stopped
    /// injecting would report vacuous green).
    pub fn from_process_env() -> Result<Option<Plan<K>>, String> {
        Plan::from_env(
            std::env::var(K::SCHEDULE_ENV).ok().as_deref(),
            std::env::var(K::SEED_ENV).ok().as_deref(),
        )
    }

    /// Adds one explicit event (test/soak construction path).
    #[must_use]
    pub fn with_event(mut self, op: u64, kind: K) -> Plan<K> {
        self.events.insert(op, kind);
        self
    }

    /// Seeded-random plan with no explicit events.
    #[must_use]
    pub fn seeded(seed: u64) -> Plan<K> {
        Plan {
            events: BTreeMap::new(),
            seed: Some(seed),
        }
    }

    /// The exact string that reproduces this plan: the explicit events in
    /// op order (the [`Kind::SCHEDULE_ENV`] syntax), then `seed=N` if a
    /// seed participates.
    pub fn canonical(&self) -> String {
        let mut parts: Vec<String> = self
            .events
            .iter()
            .map(|(op, kind)| format!("{op}:{}", kind.canonical()))
            .collect();
        if let Some(seed) = self.seed {
            parts.push(format!("seed={seed}"));
        }
        parts.join(",")
    }

    /// FNV-1a fingerprint of [`Plan::canonical`], for repro records.
    pub fn digest(&self) -> u64 {
        crate::fnv1a(self.canonical().as_bytes())
    }

    /// What this plan injects at op `op`, if anything. Explicit events
    /// win; otherwise the seed draws deterministically per op (≈1-in-8
    /// fault rate over the kind's four-entry [`Kind::draw`] table).
    pub fn kind_at(&self, op: u64) -> Option<K> {
        if let Some(&k) = self.events.get(&op) {
            return Some(k);
        }
        let seed = self.seed?;
        let r = splitmix64(seed ^ op.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        if !r.is_multiple_of(8) {
            return None;
        }
        Some(K::draw((r >> 3) % 4, r >> 5))
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One endpoint's replay state: the plan, the op counter and the sticky
/// latch. Which operations *claim* an index is the wrapping layer's
/// business; this only numbers them and resolves what to inject.
#[derive(Debug)]
pub struct Injector<K> {
    plan: Plan<K>,
    ops: AtomicU64,
    latched: AtomicBool,
}

impl<K: Kind> Injector<K> {
    /// A fresh injector replaying `plan` from op 0, shared by every handle
    /// the layer gives out.
    #[must_use]
    pub fn new(plan: Plan<K>) -> Arc<Injector<K>> {
        Arc::new(Injector {
            plan,
            ops: AtomicU64::new(0),
            latched: AtomicBool::new(false),
        })
    }

    /// Operations claimed so far (the next op index). A probe run reads
    /// this to enumerate the sites a workload touches.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Claims the next op index and resolves what to inject there,
    /// applying the sticky/heal transitions. Never yields [`Kind::HEAL`].
    pub fn next_op(&self) -> (u64, Option<K>) {
        let op = self.ops.fetch_add(1, Ordering::SeqCst);
        let kind = self.plan.kind_at(op);
        if kind == Some(K::STICKY) {
            self.latched.store(true, Ordering::SeqCst);
        } else if kind == Some(K::HEAL) {
            self.latched.store(false, Ordering::SeqCst);
            return (op, None); // the healing op itself succeeds
        }
        if self.latched.load(Ordering::SeqCst) {
            return (op, Some(K::STICKY));
        }
        (op, kind)
    }
}

#[cfg(test)]
mod tests {
    use crate::{FaultKind, FaultPlan};

    #[test]
    fn schedule_parses_and_round_trips_canonically() {
        let plan =
            FaultPlan::parse_schedule("7:torn@12, 3:enospc ,9:rename,2:stuck,8:heal").unwrap();
        assert_eq!(
            plan.canonical(),
            "2:stuck,3:enospc,7:torn@12,8:heal,9:rename"
        );
        let again = FaultPlan::parse_schedule(&plan.canonical()).unwrap();
        assert_eq!(again, plan);
        assert_eq!(again.digest(), plan.digest());
    }

    #[test]
    fn schedule_rejects_garbage() {
        for (bad, why) in [
            ("", "empty fault schedule"),
            ("  ", "empty fault schedule"),
            ("x:enospc", "bad op index 'x' in 'x:enospc'"),
            ("3enospc", "bad fault event '3enospc' (expected op:kind)"),
            ("3:enospc,3:eio", "duplicate fault event for op 3"),
            ("3:eio,", "bad fault event '' (expected op:kind)"),
            ("3:torn", "fault kind 'torn' needs '@<bytes>'"),
            ("3:torn@many", "bad torn byte offset 'many'"),
            ("3:slow", "fault kind 'slow' needs '@<millis>'"),
            ("3:slow@x", "bad slow millis 'x'"),
            ("3:enospc@5", "fault kind 'enospc' takes no '@5' argument"),
        ] {
            assert_eq!(FaultPlan::parse_schedule(bad).unwrap_err(), why, "{bad:?}");
        }
    }

    #[test]
    fn from_env_combines_schedule_and_seed() {
        assert_eq!(FaultPlan::from_env(None, None).unwrap(), None);
        let p = FaultPlan::from_env(Some("0:eio"), Some(" 9 "))
            .unwrap()
            .unwrap();
        assert_eq!(p.canonical(), "0:eio,seed=9");
        assert_eq!(
            FaultPlan::from_env(None, Some("9")).unwrap(),
            Some(FaultPlan::seeded(9))
        );
        assert_eq!(
            FaultPlan::from_env(Some("nope"), None).unwrap_err(),
            "NOC_VFS_FAULT_SCHEDULE: bad fault event 'nope' (expected op:kind)"
        );
        assert_eq!(
            FaultPlan::from_env(None, Some("-1")).unwrap_err(),
            "NOC_VFS_FAULT_SEED: '-1' is not an unsigned integer"
        );
        assert!(FaultPlan::from_env(None, Some("12x")).is_err());
    }

    #[test]
    fn explicit_events_win_over_the_seed() {
        let p = FaultPlan::seeded(42).with_event(0, FaultKind::Heal);
        assert_eq!(p.kind_at(0), Some(FaultKind::Heal));
        // Elsewhere the seed draws exactly as a pure seeded plan would.
        let pure = FaultPlan::seeded(42);
        for op in 1..256 {
            assert_eq!(p.kind_at(op), pure.kind_at(op), "op {op}");
        }
    }

    #[test]
    fn seeded_draws_are_deterministic() {
        let draws = |seed| -> Vec<_> {
            let plan = FaultPlan::seeded(seed);
            (0..256).map(|op| plan.kind_at(op)).collect()
        };
        assert_eq!(draws(42), draws(42));
        assert_ne!(draws(42), draws(43));
        assert!(
            draws(42).iter().any(Option::is_some),
            "seed 42 injects nothing in 256 ops"
        );
        assert!(
            draws(42).iter().any(Option::is_none),
            "seed 42 faults every op"
        );
    }
}

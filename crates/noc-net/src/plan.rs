//! The network fault kinds.
//!
//! Every *connection operation* (one `connect`, one `accept` of a pending
//! connection, one `read` call, one `write` call) consumes one op index,
//! and a [`NetFaultPlan`] decides what happens at that index. The plan —
//! schedule grammar, seed, precedence, the sticky `partition`/`heal`
//! latch, `canonical`/`digest` — is `noc_store`'s generic [`Plan`]; this
//! module holds only what is the network's own: the kind table and the
//! knob names `NOC_NET_FAULT_SCHEDULE` / `NOC_NET_FAULT_SEED`.

use noc_store::plan::{no_arg, num_arg, Kind, Plan};

/// What happens to one connection operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The op fails with `ECONNRESET` (an accept drops the pending
    /// connection; a connect is refused; a read/write kills the stream).
    Reset,
    /// A read/write transfers only the first `n` bytes, then the stream is
    /// dead — every later op on it resets. At an admission op (accept /
    /// connect) this behaves like [`NetFaultKind::Reset`].
    Torn(u32),
    /// Sleep this many milliseconds, then perform the op normally — a slow
    /// trickle / congested path.
    Slow(u64),
    /// Admission failure: accepts and connects fail at this op. Reads and
    /// writes on already-established streams are unaffected.
    AcceptFail,
    /// From this op onward every connection operation fails — a sticky
    /// network partition — until a [`NetFaultKind::Heal`] event.
    Partition,
    /// Clear a [`NetFaultKind::Partition`]; this op then succeeds.
    Heal,
}

impl Kind for NetFaultKind {
    const SCHEDULE_ENV: &'static str = "NOC_NET_FAULT_SCHEDULE";
    const SEED_ENV: &'static str = "NOC_NET_FAULT_SEED";
    const STICKY: NetFaultKind = NetFaultKind::Partition;
    const HEAL: NetFaultKind = NetFaultKind::Heal;

    fn parse(name: &str, arg: Option<&str>) -> Result<NetFaultKind, String> {
        let kind = match name {
            "torn" => {
                return num_arg(name, arg, "bytes", "torn byte offset").map(NetFaultKind::Torn)
            }
            "slow" => return num_arg(name, arg, "millis", "slow millis").map(NetFaultKind::Slow),
            "reset" => NetFaultKind::Reset,
            "acceptfail" => NetFaultKind::AcceptFail,
            "partition" => NetFaultKind::Partition,
            "heal" => NetFaultKind::Heal,
            other => {
                return Err(format!(
                    "unknown fault kind '{other}' \
                     (expected reset|torn@N|slow@MS|acceptfail|partition|heal)"
                ))
            }
        };
        no_arg(name, arg, kind)
    }

    fn canonical(self) -> String {
        match self {
            NetFaultKind::Reset => "reset".to_string(),
            NetFaultKind::Torn(n) => format!("torn@{n}"),
            NetFaultKind::Slow(ms) => format!("slow@{ms}"),
            NetFaultKind::AcceptFail => "acceptfail".to_string(),
            NetFaultKind::Partition => "partition".to_string(),
            NetFaultKind::Heal => "heal".to_string(),
        }
    }

    fn draw(pick: u64, arg: u64) -> NetFaultKind {
        match pick {
            0 => NetFaultKind::Reset,
            1 => NetFaultKind::Torn((arg % 32) as u32),
            2 => NetFaultKind::Slow(1),
            _ => NetFaultKind::AcceptFail,
        }
    }
}

/// A network fault plan: [`Plan`] over [`NetFaultKind`].
pub type NetFaultPlan = Plan<NetFaultKind>;

#[cfg(test)]
mod tests {
    use super::*;

    /// The network kind table: every name parses and prints back, `@arg`
    /// is accepted exactly on `torn` and `slow`, and the errors name the
    /// network alternatives and knobs.
    #[test]
    fn kind_table() {
        for (name, takes_arg) in [
            ("reset", false),
            ("torn", true),
            ("slow", true),
            ("acceptfail", false),
            ("partition", false),
            ("heal", false),
        ] {
            let (bare, with_arg) = (format!("3:{name}"), format!("3:{name}@12"));
            let (good, bad) = if takes_arg {
                (with_arg, bare)
            } else {
                (bare, with_arg)
            };
            let plan = NetFaultPlan::parse_schedule(&good).unwrap();
            assert_eq!(plan.canonical(), good);
            assert!(NetFaultPlan::parse_schedule(&bad).is_err(), "{bad}");
        }
        assert_eq!(
            NetFaultPlan::parse_schedule("3:whatever").unwrap_err(),
            "unknown fault kind 'whatever' \
             (expected reset|torn@N|slow@MS|acceptfail|partition|heal)"
        );
        let err = NetFaultPlan::from_env(Some("nope"), None).unwrap_err();
        assert!(err.starts_with("NOC_NET_FAULT_SCHEDULE: "), "{err}");
        let err = NetFaultPlan::from_env(None, Some("12x")).unwrap_err();
        assert!(err.starts_with("NOC_NET_FAULT_SEED: "), "{err}");
    }
}

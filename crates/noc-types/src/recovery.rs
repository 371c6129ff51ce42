//! Runtime recovery configuration.
//!
//! A [`RecoveryConfig`] rides on [`crate::NetConfig`] and arms the runtime
//! recovery layer in `noc-sim::recovery`: instead of the watchdog dumping a
//! black box and panicking when the network wedges, the recovery layer
//! selects a victim packet from the wait-for cycle (or, for livelock, the
//! oldest blocked head), drains it through a reserved serialized XY recovery
//! channel, and lets the dependents make progress. The default value is
//! fully disabled; the engine promises bit-identical behaviour to a build
//! without the recovery layer whenever [`RecoveryConfig::enabled`] is false.
//!
//! Two independent sub-layers are configured here:
//!
//! * **Drain recovery** (`enabled` + `stuck_threshold`) — the in-network
//!   escape path for deadlock/livelock victims. The threshold must sit well
//!   below the watchdog's panic threshold so recovery fires first; the
//!   watchdog stays armed as the backstop for a recovery layer that cannot
//!   find a viable victim.
//! * **End-to-end retransmission** (`e2e_timeout` > 0) — NIC-level
//!   per-packet timeout retransmission with duplicate suppression at
//!   ejection, covering losses no link-layer protocol can heal (a router
//!   dying mid-flight with flits buffered inside it). Off by default: near
//!   saturation, honest queueing delay exceeds any fixed timeout, so e2e
//!   retransmission is a fault-scenario tool, not a general-traffic one.

/// Runtime-recovery knobs carried by [`crate::NetConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Arms drain recovery. When false the whole layer is compiled out of
    /// the run: no recovery state is allocated and the cycle loop takes no
    /// recovery branches.
    pub enabled: bool,
    /// Cycles without global progress before the recovery layer looks for a
    /// victim. Must be below the watchdog's stuck threshold (the watchdog
    /// panics; recovery pre-empts it).
    pub stuck_threshold: u64,
    /// Base timeout (cycles) for NIC-level end-to-end retransmission of a
    /// whole packet; `0` disables the end-to-end layer.
    pub e2e_timeout: u64,
    /// Retransmission attempts per packet before the source NIC gives up
    /// and records the packet as abandoned.
    pub e2e_max_retries: u32,
}

impl Default for RecoveryConfig {
    /// Fully disabled. The thresholds keep sane values so arming recovery
    /// later needs only the `enabled` flag.
    fn default() -> Self {
        RecoveryConfig {
            enabled: false,
            stuck_threshold: 512,
            e2e_timeout: 0,
            e2e_max_retries: 4,
        }
    }
}

impl RecoveryConfig {
    /// Drain recovery armed at the default threshold, end-to-end layer off.
    pub fn drain() -> Self {
        RecoveryConfig {
            enabled: true,
            ..RecoveryConfig::default()
        }
    }

    /// True when any recovery machinery must be built for the run.
    pub fn any(&self) -> bool {
        self.enabled || self.e2e_timeout > 0
    }

    /// Builder: arm or disarm drain recovery.
    #[must_use]
    pub fn with_enabled(mut self, enabled: bool) -> Self {
        self.enabled = enabled;
        self
    }

    /// Builder: replace the drain stuck threshold.
    #[must_use]
    pub fn with_stuck_threshold(mut self, cycles: u64) -> Self {
        self.stuck_threshold = cycles;
        self
    }

    /// Builder: arm end-to-end retransmission with the given base timeout.
    #[must_use]
    pub fn with_e2e(mut self, timeout: u64, max_retries: u32) -> Self {
        self.e2e_timeout = timeout;
        self.e2e_max_retries = max_retries;
        self
    }

    /// Rejects configurations that would arm the layer with degenerate
    /// knobs (they would spin every cycle or retransmit forever).
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && self.stuck_threshold == 0 {
            return Err("recovery config: stuck_threshold must be > 0 when drain \
                 recovery is enabled"
                .to_string());
        }
        if self.e2e_timeout > 0 && self.e2e_max_retries == 0 {
            return Err("recovery config: e2e_max_retries must be > 0 when the \
                 end-to-end layer is enabled"
                .to_string());
        }
        Ok(())
    }

    /// Canonical single-line rendering, folded into the config digest so
    /// checkpoint keys distinguish recovery-armed runs. Stable across runs.
    pub fn canonical(&self) -> String {
        format!(
            "re={};st={};et={};er={}",
            u8::from(self.enabled),
            self.stuck_threshold,
            self.e2e_timeout,
            self.e2e_max_retries
        )
    }

    /// Inverse of [`RecoveryConfig::canonical`]; absent fields keep their
    /// defaults.
    pub fn from_canonical(canon: &str) -> Result<RecoveryConfig, String> {
        let mut rc = RecoveryConfig::default();
        for part in canon.split(';').filter(|p| !p.is_empty()) {
            let (key, val) = part
                .split_once('=')
                .ok_or_else(|| format!("bad recovery field '{part}'"))?;
            let n: u64 = val
                .parse()
                .map_err(|e| format!("recovery field '{part}': {e}"))?;
            match key {
                "re" => rc.enabled = n != 0,
                "st" => rc.stuck_threshold = n,
                "et" => rc.e2e_timeout = n,
                "er" => {
                    rc.e2e_max_retries =
                        u32::try_from(n).map_err(|e| format!("recovery field '{part}': {e}"))?;
                }
                other => return Err(format!("unknown recovery field '{other}'")),
            }
        }
        Ok(rc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled() {
        let r = RecoveryConfig::default();
        assert!(!r.enabled);
        assert!(!r.any());
        assert!(r.validate().is_ok());
    }

    #[test]
    fn drain_arms_only_the_drain_layer() {
        let r = RecoveryConfig::drain();
        assert!(r.enabled && r.any());
        assert_eq!(r.e2e_timeout, 0);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn degenerate_knobs_are_rejected() {
        let r = RecoveryConfig::drain().with_stuck_threshold(0);
        assert!(r.validate().unwrap_err().contains("stuck_threshold"));
        let r = RecoveryConfig::default().with_e2e(32, 0);
        assert!(r.validate().unwrap_err().contains("e2e_max_retries"));
    }

    #[test]
    fn canonical_is_stable_and_distinguishes() {
        let a = RecoveryConfig::drain();
        assert_eq!(a.canonical(), RecoveryConfig::drain().canonical());
        assert_ne!(a.canonical(), RecoveryConfig::default().canonical());
        assert_ne!(
            a.canonical(),
            RecoveryConfig::drain().with_e2e(64, 4).canonical()
        );
    }

    #[test]
    fn from_canonical_round_trips_every_field() {
        for rc in [
            RecoveryConfig::default(),
            RecoveryConfig::drain(),
            RecoveryConfig::drain()
                .with_stuck_threshold(128)
                .with_e2e(600, 50),
            RecoveryConfig::default().with_e2e(u64::MAX, u32::MAX),
        ] {
            let back = RecoveryConfig::from_canonical(&rc.canonical()).unwrap();
            assert_eq!(back, rc);
            assert_eq!(back.canonical(), rc.canonical());
        }
        // Each field on its own lands on its knob; the rest stay default.
        let one = |s: &str| RecoveryConfig::from_canonical(s).unwrap();
        assert!(one("re=1").enabled);
        assert_eq!(one("st=9").stuck_threshold, 9);
        assert_eq!(one("et=7").e2e_timeout, 7);
        assert_eq!(one("er=3").e2e_max_retries, 3);
        assert_eq!(one(""), RecoveryConfig::default());
    }

    #[test]
    fn from_canonical_rejects_garbage_with_the_field_named() {
        for (canon, want) in [
            ("re", "bad recovery field 're'"),
            (
                "st=x",
                "recovery field 'st=x': invalid digit found in string",
            ),
            (
                "er=4294967296",
                "recovery field 'er=4294967296': out of range integral type conversion attempted",
            ),
            ("zz=1", "unknown recovery field 'zz'"),
        ] {
            assert_eq!(
                RecoveryConfig::from_canonical(canon).unwrap_err(),
                want,
                "{canon}"
            );
        }
    }
}

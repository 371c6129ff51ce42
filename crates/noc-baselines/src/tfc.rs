//! Token Flow Control (TFC, Kumar et al. MICRO '08) — approximated.
//!
//! TFC broadcasts *tokens* (hints of buffer availability) so flits can
//! bypass the router pipeline and buffers along token-held paths. The SEEC
//! paper's own footnote 4 notes that against an optimized 1-cycle router —
//! which is exactly what this simulator models — TFC shows *no* low-load
//! latency improvement, because there is no pipeline left to skip. What
//! remains of TFC at this design point is (a) west-first routing for
//! deadlock freedom and (b) buffer read/write *energy* savings on bypassed
//! hops. We model exactly that: the mechanism tracks which outputs hold
//! tokens (≥ 2 free downstream VCs, refreshed each cycle with a one-cycle
//! lag like real token propagation) and counts flits that would have
//! traversed bufferlessly; the energy model credits them.

use noc_sim::network::Network;
use noc_sim::Mechanism;
use noc_types::{Direction, SchemeKind, NUM_PORTS};

/// Free downstream VCs needed before a token is advertised (the paper's TFC
/// uses a buffer-occupancy margin so in-flight flits cannot overrun).
pub const TOKEN_THRESHOLD: usize = 2;

/// The TFC baseline mechanism. Use with
/// `RoutingAlgo::Uniform(BaseRouting::WestFirst)`.
pub struct TfcMechanism {
    /// Token state per (router, output port), lagged one cycle.
    tokens: Vec<[bool; NUM_PORTS]>,
    /// Diagnostics: flits that traversed a token-held hop (bypassed buffers).
    pub bypassed_flits: u64,
}

impl TfcMechanism {
    pub fn new(num_nodes: usize) -> TfcMechanism {
        TfcMechanism {
            tokens: vec![[false; NUM_PORTS]; num_nodes],
            bypassed_flits: 0,
        }
    }

    pub fn for_net(cfg: &noc_types::NetConfig) -> TfcMechanism {
        TfcMechanism::new(cfg.num_nodes())
    }
}

impl Mechanism for TfcMechanism {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Tfc
    }

    fn post_cycle(&mut self, net: &mut Network) {
        let now = net.cycle;
        let hop = net.hop_latency();
        let sent_at = now + hop;
        // Refresh token state from this cycle's credit snapshot.
        for (i, tokens) in self.tokens.iter_mut().enumerate() {
            for (p, t) in tokens.iter_mut().enumerate() {
                *t = net.credits.free_count(i, p) >= TOKEN_THRESHOLD;
            }
        }
        // Flits just sent toward token-holding routers traverse them
        // bufferlessly. With multi-cycle routers the bypass also skips the
        // pipeline: the flit is re-timed to arrive after the link plus a
        // single latch (footnote 4: against a 1-cycle router there is
        // nothing left to skip, so only the energy credit remains).
        let mut bypasses = 0;
        let bypass_arrival = now + 2; // link + latch
        for (j, inbox) in net.inbox_router.iter_mut().enumerate() {
            let tokens = &self.tokens[j];
            // Flits just sent arrive exactly at `sent_at`, so only that
            // bucket of the wheel needs visiting.
            inbox.retime_due_at(sent_at, |&(port, flit)| {
                if port == Direction::Local.index() || !tokens.iter().take(4).any(|&t| t) {
                    return None;
                }
                bypasses += 1;
                // Only heads may be accelerated (re-timing a body flit past
                // its head would break FIFO arrival within a VC).
                if flit.kind.is_head() && bypass_arrival < sent_at {
                    Some(bypass_arrival)
                } else {
                    None
                }
            });
        }
        self.bypassed_flits += bypasses;
        net.stats.tfc_bypasses += bypasses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_types::NetConfig;

    #[test]
    fn tokens_start_cleared_and_set_from_snapshot() {
        let cfg = NetConfig::synth(4, 4);
        let mut net = Network::new(cfg.clone());
        let mut tfc = TfcMechanism::for_net(&cfg);
        assert!(!tfc.tokens[0][2]);
        // Simulate the engine's snapshot having been refreshed: mark all
        // east VCs of router 0 free.
        for v in 0..cfg.vcs_per_port() {
            net.credits.set_free(0, 2, v, true);
        }
        tfc.post_cycle(&mut net);
        assert!(tfc.tokens[0][2]);
        assert!(!tfc.tokens[0][3], "edge port should never hold a token");
    }
}

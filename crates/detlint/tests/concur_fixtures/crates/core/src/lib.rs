//! Planted blocking-cycle, order-leak, raw-channel, and lock-inversion
//! violations for the concurrency fixture test. Never compiled — detlint
//! scans these files as text.

pub struct Engine;

impl Engine {
    /// Engine role root: blocks in a drain call waiting on worker replies.
    pub fn step(&mut self) {
        self.drain_deadline(&[0, 1]);
    }

    /// A genuine canonical drain: per-slot channels read in caller-fixed
    /// index order (verified by the indexed-recv evidence).
    fn drain_deadline(&self, from: &[usize]) -> Vec<u32> {
        from.iter().map(|&i| self.replies[i].recv()).collect()
    }
}

/// Worker thread body. The barrier claim is audited: results leave under
/// fixed keys, but this body shows no sort — hence the allow.
// detlint::allow(barrier-unverified): fixture worker publishes under fixed keys
pub fn worker_main(cmds: Rx) {
    loop {
        let _cmd = cmds.recv();
        handle_cmd();
    }
}

fn handle_cmd() {
    wait_for_ack();
}

// PLANTED blocking-cycle + order-leak: a worker-exclusive blocking receive
// outside any drain, while the engine blocks in drain_deadline.
fn wait_for_ack() {
    let _ = acks.recv();
}

// PLANTED raw-channel: raw mpsc construction outside the audited modules.
pub fn ack_channel() -> (Tx, Rx) {
    std::sync::mpsc::channel()
}

pub struct Store;

impl Store {
    // PLANTED lock-inversion (one half): alpha then beta.
    fn refresh_a(&self) {
        let _a = self.alpha.lock();
        let _b = self.beta.lock();
    }

    // PLANTED lock-inversion (other half): beta, then alpha through a
    // callee — only the interprocedural summary sees this direction.
    fn refresh_b(&self) {
        let _b = self.beta.lock();
        lock_alpha(self);
    }
}

fn lock_alpha(s: &Store) {
    let _a = s.alpha.lock();
}

// PLANTED stale suppression: blocks nothing.
// detlint::allow(unsealed-drain): nothing here drains
pub fn tidy() {}

//! The output digest: a fingerprint of a run's simulated outputs. Two runs
//! of one workload and seed must produce the same digest, whatever the
//! host, the build, or whether the run was traced.

use qres_sim::RunResult;

/// FNV-1a over the canonical text of the simulated outputs: events
/// dispatched, the system blocking and dropping counters, the bits of
/// `P_HD`, `P_CB` and mean `N_calc`, the signaling totals, and the bits of
/// every cell's final `B_r`.
pub fn digest(r: &RunResult) -> String {
    let mut text = format!(
        "events={};cb={}/{};hd={}/{};p_hd={:016x};p_cb={:016x};n_calc={:016x};sig={}/{}/{};br=",
        r.events_dispatched,
        r.system_cb.hits(),
        r.system_cb.trials(),
        r.system_hd.hits(),
        r.system_hd.trials(),
        r.p_hd().to_bits(),
        r.p_cb().to_bits(),
        r.n_calc_mean.to_bits(),
        r.signaling.messages,
        r.signaling.hops,
        r.signaling.bytes,
    );
    for cell in &r.cells {
        text.push_str(&format!("{:016x},", cell.b_r_final.to_bits()));
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

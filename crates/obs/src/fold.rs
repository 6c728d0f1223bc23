//! Folded-stack rendering of the `--obs` event stream (`qres obsfold`).
//!
//! Turns the `obs_events.jsonl` span pairs — each `admission` event and
//! the `br_compute` children sharing its `req` id — into the
//! semicolon-separated folded format consumed by `flamegraph.pl` and
//! `inferno-flamegraph`:
//!
//! ```text
//! cell_7;admission;AC3 1234
//! cell_7;admission;AC3;br_compute;cell_8 457
//! ```
//!
//! Values are wall-clock nanoseconds with *self-time* semantics: an
//! admission frame's value is its `dur_ns` minus the sum of its
//! `br_compute` children (floored at zero — clocks are independent), so
//! the flame graph's widths add up the way the profile actually spent
//! time.
//!
//! Pairing is streaming: `br_compute` events buffer under their `req`
//! until the matching `admission` arrives (children are recorded before
//! their parent), which also keeps pairing correct when request ids
//! restart across the points of a sweep. The stream must therefore be
//! single-threaded (`sweep_offered_load_sequential`, or a plain `run`);
//! parallel sweeps interleave points and may mis-attribute children.

use std::collections::BTreeMap;

use qres_json::Value;

/// One buffered `br_compute` child: (cell, dur_ns).
type PendingBr = (u64, u64);

/// Renders a JSONL event stream as aggregated folded stacks, sorted by
/// stack name (deterministic output for tests and diffs).
///
/// Events other than `admission`/`br_compute` are ignored. Lines that are
/// not valid JSON objects fail the whole conversion — run `qres obscheck`
/// first for a line-precise diagnosis.
pub fn folded_stacks(jsonl: &str) -> Result<String, String> {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    let mut pending: BTreeMap<u64, Vec<PendingBr>> = BTreeMap::new();

    for (lineno, line) in jsonl.lines().enumerate() {
        if line.is_empty() {
            continue;
        }
        let value =
            Value::parse(line).map_err(|e| format!("line {}: not valid JSON: {e}", lineno + 1))?;
        let Some(Value::Str(tag)) = value.get("type") else {
            return Err(format!("line {}: event has no string `type`", lineno + 1));
        };
        match tag.as_str() {
            "br_compute" => {
                let cell = get_u64(&value, "cell").unwrap_or(0);
                let req = get_u64(&value, "req").unwrap_or(0);
                let dur = get_u64(&value, "dur_ns").unwrap_or(0);
                pending.entry(req).or_default().push((cell, dur));
            }
            "admission" => {
                let cell = get_u64(&value, "cell").unwrap_or(0);
                let req = get_u64(&value, "req").unwrap_or(0);
                let dur = get_u64(&value, "dur_ns").unwrap_or(0);
                let scheme = match value.get("scheme") {
                    Some(Value::Str(s)) => sanitize_frame(s),
                    _ => "unknown".to_string(),
                };
                let parent = format!("cell_{cell};admission;{scheme}");
                let mut child_sum = 0u64;
                for (br_cell, br_dur) in pending.remove(&req).unwrap_or_default() {
                    child_sum += br_dur;
                    *totals
                        .entry(format!("{parent};br_compute;cell_{br_cell}"))
                        .or_default() += br_dur;
                }
                *totals.entry(parent).or_default() += dur.saturating_sub(child_sum);
            }
            _ => {}
        }
    }

    // B_r computations with no surviving parent (sampled-out admissions
    // cannot happen — admissions are Info-tier — but truncated streams
    // can): attribute to the cell directly rather than dropping the time.
    for brs in pending.into_values() {
        for (cell, dur) in brs {
            *totals.entry(format!("cell_{cell};br_compute")).or_default() += dur;
        }
    }

    let mut out = String::new();
    for (stack, ns) in &totals {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    Ok(out)
}

/// A frame name must not contain the folded format's separators.
fn sanitize_frame(s: &str) -> String {
    s.replace([';', ' '], "_")
}

fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match v.get(key)? {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        Value::Float(f) if *f >= 0.0 => Some(*f as u64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_children_under_their_admission() {
        let jsonl = concat!(
            r#"{"type":"br_compute","t":1.0,"cell":7,"req":1,"recomputed":2,"br":3.0,"dur_ns":400}"#,
            "\n",
            r#"{"type":"br_compute","t":1.0,"cell":8,"req":1,"recomputed":2,"br":2.0,"dur_ns":250}"#,
            "\n",
            r#"{"type":"admission","t":1.0,"cell":7,"req":1,"scheme":"AC3","admitted":true,"blocked_by_neighbor":null,"br":3.0,"dur_ns":1000}"#,
            "\n",
        );
        let folded = folded_stacks(jsonl).unwrap();
        assert_eq!(
            folded,
            "cell_7;admission;AC3 350\n\
             cell_7;admission;AC3;br_compute;cell_7 400\n\
             cell_7;admission;AC3;br_compute;cell_8 250\n"
        );
    }

    #[test]
    fn req_ids_may_restart_across_sweep_points() {
        // Two sweep points both use req=1; streaming pairing keeps each
        // br_compute with the admission that follows it.
        let jsonl = concat!(
            r#"{"type":"br_compute","t":1.0,"cell":2,"req":1,"dur_ns":100}"#,
            "\n",
            r#"{"type":"admission","t":1.0,"cell":2,"req":1,"scheme":"AC1","admitted":true,"br":0.0,"dur_ns":150}"#,
            "\n",
            r#"{"type":"br_compute","t":0.5,"cell":3,"req":1,"dur_ns":700}"#,
            "\n",
            r#"{"type":"admission","t":0.5,"cell":3,"req":1,"scheme":"AC1","admitted":false,"br":0.0,"dur_ns":900}"#,
            "\n",
        );
        let folded = folded_stacks(jsonl).unwrap();
        assert!(folded.contains("cell_2;admission;AC1 50\n"));
        assert!(folded.contains("cell_2;admission;AC1;br_compute;cell_2 100\n"));
        assert!(folded.contains("cell_3;admission;AC1 200\n"));
        assert!(folded.contains("cell_3;admission;AC1;br_compute;cell_3 700\n"));
    }

    #[test]
    fn orphans_fold_to_their_own_cell_and_self_time_floors_at_zero() {
        let jsonl = concat!(
            // Child reports more time than its parent (independent clock
            // reads): the parent's self time floors at zero.
            r#"{"type":"br_compute","t":1.0,"cell":4,"req":9,"dur_ns":500}"#,
            "\n",
            r#"{"type":"admission","t":1.0,"cell":4,"req":9,"scheme":"static(G=10)","admitted":true,"br":0.0,"dur_ns":300}"#,
            "\n",
            // Truncated stream: a child whose parent never arrives.
            r#"{"type":"br_compute","t":2.0,"cell":5,"req":10,"dur_ns":42}"#,
            "\n",
        );
        let folded = folded_stacks(jsonl).unwrap();
        assert!(folded.contains("cell_4;admission;static(G=10) 0\n"));
        assert!(folded.contains("cell_4;admission;static(G=10);br_compute;cell_4 500\n"));
        assert!(folded.contains("cell_5;br_compute 42\n"));
    }

    #[test]
    fn scheme_labels_cannot_break_the_frame_separator() {
        let jsonl = concat!(
            r#"{"type":"admission","t":1.0,"cell":0,"req":1,"scheme":"NS(w=36; m=36)","admitted":true,"br":0.0,"dur_ns":10}"#,
            "\n",
        );
        let folded = folded_stacks(jsonl).unwrap();
        assert_eq!(folded, "cell_0;admission;NS(w=36__m=36) 10\n");
    }

    #[test]
    fn other_event_types_are_ignored_and_bad_json_is_an_error() {
        let ok = concat!(
            r#"{"type":"queue_high_water","t":1.0,"live":5}"#,
            "\n",
            r#"{"type":"admission","t":1.0,"cell":1,"req":1,"scheme":"AC2","admitted":true,"br":0.0,"dur_ns":7}"#,
            "\n",
        );
        assert_eq!(folded_stacks(ok).unwrap(), "cell_1;admission;AC2 7\n");
        let err = folded_stacks("not json\n").unwrap_err();
        assert!(err.contains("line 1"), "err: {err}");
    }
}

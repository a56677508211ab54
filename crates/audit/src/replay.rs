//! Offline trace replay: run the lifecycle ledgers over a recorded
//! flight-recorder JSONL file (`hcloud-cli audit`).
//!
//! A trace knows less than the live auditor (it has no work amounts and
//! no core counts), so replay checks the invariants a trace *can* prove:
//! instance lifecycle (every spin-up released at most once, terminations
//! and retention expiries only on live instances), queue conservation
//! (exits never outrun entries, all entries matched by end of file; a
//! tenant preemption of a queued job is that job's exit), and
//! stream integrity (exactly one `run-end`, header event count matches
//! the body).
//!
//! Checks run in recording order, which is the causal execution order:
//! the recorder logs each action as the simulation performs it. Sim time
//! is deliberately *not* required to be monotone across the file —
//! recovery paths log future-dated events (a spin-up retried under fault
//! backoff carries the time the retry lands), and cancelling an in-flight
//! acquisition releases at the current time while its spin-up event was
//! future-dated. Recording order is the only order that is causal for
//! every event class.

use std::collections::BTreeMap;

use hcloud_json::parse;

/// Per-file replay totals.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReplayStats {
    /// Events replayed (excluding the header line).
    pub events: u64,
    /// Instances spun up.
    pub spin_ups: u64,
    /// Instances released.
    pub releases: u64,
    /// Queue entries.
    pub queue_enters: u64,
    /// Queue exits.
    pub queue_exits: u64,
    /// Spot terminations.
    pub spot_terminations: u64,
}

/// Replays one flight-recorder JSONL file against the lifecycle ledgers.
///
/// Returns the per-file totals, or a message naming the offending line
/// and the invariant it broke.
pub fn replay_file(text: &str) -> Result<ReplayStats, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty trace file")?;
    let header = parse(header).map_err(|e| format!("line 1: bad header: {e}"))?;
    let declared = header
        .get("events")
        .and_then(|v| v.as_u64())
        .ok_or("line 1: header is missing the \"events\" count")?;
    header
        .get("schema")
        .and_then(|v| v.as_u64())
        .ok_or("line 1: header is missing the \"schema\" version")?;

    let mut stats = ReplayStats::default();
    // Instance id -> released? (entry exists once spun up).
    let mut instances: BTreeMap<u64, bool> = BTreeMap::new();
    // Job id -> queue entries minus exits.
    let mut queued: BTreeMap<u64, u64> = BTreeMap::new();
    let mut run_ends = 0u64;

    for (idx, line) in lines {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        let ev = parse(line).map_err(|e| format!("line {lineno}: bad JSON: {e}"))?;
        ev.get("t_us")
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("line {lineno}: event without \"t_us\""))?;
        let kind = ev
            .get("ev")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("line {lineno}: event without \"ev\""))?;
        stats.events += 1;

        let instance = || {
            ev.get("instance")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("line {lineno}: {kind} without \"instance\""))
        };
        let job = || {
            ev.get("job")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("line {lineno}: {kind} without \"job\""))
        };
        match kind {
            "instance-spin-up" => {
                let id = instance()?;
                if instances.insert(id, false).is_some() {
                    return Err(format!("line {lineno}: instance {id} spun up twice"));
                }
                stats.spin_ups += 1;
            }
            "instance-released" => {
                let id = instance()?;
                match instances.get_mut(&id) {
                    None => {
                        return Err(format!("line {lineno}: release of unknown instance {id}"));
                    }
                    Some(released @ false) => *released = true,
                    Some(true) => {
                        return Err(format!("line {lineno}: instance {id} released twice"));
                    }
                }
                stats.releases += 1;
            }
            "retention-expired" | "spot-terminated" => {
                let id = instance()?;
                match instances.get(&id) {
                    None => {
                        return Err(format!("line {lineno}: {kind} on unknown instance {id}"));
                    }
                    Some(true) => {
                        return Err(format!("line {lineno}: {kind} on released instance {id}"));
                    }
                    Some(false) => {}
                }
                if kind == "spot-terminated" {
                    stats.spot_terminations += 1;
                }
            }
            "queue-enter" => {
                *queued.entry(job()?).or_insert(0) += 1;
                stats.queue_enters += 1;
            }
            "queue-exit" => {
                let j = job()?;
                match queued.get_mut(&j) {
                    Some(n) if *n > 0 => *n -= 1,
                    _ => {
                        return Err(format!(
                            "line {lineno}: queue-exit for job {j} with no matching entry"
                        ));
                    }
                }
                stats.queue_exits += 1;
            }
            "tenant-preempt" => {
                // A queued victim leaves the reserved queue without a
                // `queue-exit`; a running one has no open entry.
                if let Some(n) = queued.get_mut(&job()?).filter(|n| **n > 0) {
                    *n -= 1;
                    stats.queue_exits += 1;
                }
            }
            "run-end" => {
                run_ends += 1;
                if run_ends > 1 {
                    return Err(format!("line {lineno}: more than one run-end event"));
                }
            }
            // Everything else (decisions, faults, QoS, progress, audit
            // summaries...) carries no lifecycle obligations.
            _ => {}
        }
    }

    if run_ends != 1 {
        return Err("trace has no run-end event".into());
    }
    if stats.events != declared {
        return Err(format!(
            "header declares {declared} events but the body has {}",
            stats.events
        ));
    }
    if let Some((job, n)) = queued.iter().find(|(_, &n)| n > 0) {
        return Err(format!(
            "job {job} entered the queue {n} more time(s) than it left"
        ));
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(events: &[&str]) -> String {
        let mut out = format!(
            "{{\"schema\":1,\"run\":\"t\",\"scenario\":\"s\",\"strategy\":\"sr\",\"seed\":7,\"events\":{}}}\n",
            events.len()
        );
        for e in events {
            out.push_str(e);
            out.push('\n');
        }
        out
    }

    #[test]
    fn clean_trace_replays() {
        let text = trace(&[
            r#"{"t_us":0,"ev":"instance-spin-up","instance":0,"itype":"m-16","vcpus":16,"spot":false,"spin_up_us":5}"#,
            r#"{"t_us":10,"ev":"queue-enter","job":1,"cores":4,"depth":1,"est_us":null}"#,
            r#"{"t_us":20,"ev":"queue-exit","job":1,"cores":4,"est_us":null,"actual_us":10,"relieved":false}"#,
            r#"{"t_us":30,"ev":"run-end","events_processed":4,"scheduled_total":4,"max_queue_depth":1}"#,
            r#"{"t_us":30,"ev":"instance-released","instance":0}"#,
        ]);
        let stats = replay_file(&text).unwrap();
        assert_eq!(stats.events, 5);
        assert_eq!(stats.spin_ups, 1);
        assert_eq!(stats.releases, 1);
        assert_eq!(stats.queue_enters, 1);
        assert_eq!(stats.queue_exits, 1);
    }

    #[test]
    fn double_release_is_flagged() {
        let text = trace(&[
            r#"{"t_us":0,"ev":"instance-spin-up","instance":0,"itype":"m-16","vcpus":16,"spot":false,"spin_up_us":5}"#,
            r#"{"t_us":1,"ev":"instance-released","instance":0}"#,
            r#"{"t_us":2,"ev":"instance-released","instance":0}"#,
            r#"{"t_us":3,"ev":"run-end","events_processed":3,"scheduled_total":3,"max_queue_depth":0}"#,
        ]);
        let err = replay_file(&text).unwrap_err();
        assert!(err.contains("released twice"), "{err}");
    }

    #[test]
    fn release_of_unknown_instance_is_flagged() {
        let text = trace(&[
            r#"{"t_us":1,"ev":"instance-released","instance":9}"#,
            r#"{"t_us":2,"ev":"run-end","events_processed":2,"scheduled_total":2,"max_queue_depth":0}"#,
        ]);
        let err = replay_file(&text).unwrap_err();
        assert!(err.contains("unknown instance 9"), "{err}");
    }

    #[test]
    fn unmatched_queue_entry_is_flagged() {
        let text = trace(&[
            r#"{"t_us":1,"ev":"queue-enter","job":3,"cores":2,"depth":1,"est_us":null}"#,
            r#"{"t_us":2,"ev":"run-end","events_processed":2,"scheduled_total":2,"max_queue_depth":1}"#,
        ]);
        let err = replay_file(&text).unwrap_err();
        assert!(err.contains("job 3"), "{err}");
    }

    #[test]
    fn preempted_queued_victim_replays_clean() {
        // Entered, preempted out of the queue, deferred at the gate,
        // then queued and drained again.
        let text = trace(&[
            r#"{"t_us":1,"ev":"queue-enter","job":899,"cores":4,"depth":1,"est_us":null}"#,
            r#"{"t_us":2,"ev":"tenant-preempt","job":899,"victim_tenant":3,"starved_tenant":0,"work_lost_core_secs":0}"#,
            r#"{"t_us":2,"ev":"tenant-defer","job":899,"tenant":3,"depth":1}"#,
            r#"{"t_us":5,"ev":"tenant-release","job":899,"tenant":3,"waited_us":3,"borrowed":false}"#,
            r#"{"t_us":5,"ev":"queue-enter","job":899,"cores":4,"depth":1,"est_us":null}"#,
            r#"{"t_us":9,"ev":"queue-exit","job":899,"cores":4,"est_us":null,"actual_us":8,"relieved":false}"#,
            r#"{"t_us":9,"ev":"run-end","events_processed":7,"scheduled_total":7,"max_queue_depth":1}"#,
        ]);
        let stats = replay_file(&text).unwrap();
        assert_eq!(stats.queue_enters, 2);
        assert_eq!(stats.queue_exits, 2);
    }

    #[test]
    fn preempting_a_running_job_changes_no_count() {
        let run = |preempt: bool| {
            let mut events = vec![
                r#"{"t_us":1,"ev":"queue-enter","job":4,"cores":4,"depth":1,"est_us":null}"#,
                r#"{"t_us":2,"ev":"queue-exit","job":4,"cores":4,"est_us":null,"actual_us":1,"relieved":false}"#,
            ];
            if preempt {
                events.push(r#"{"t_us":3,"ev":"tenant-preempt","job":4,"victim_tenant":1,"starved_tenant":0,"work_lost_core_secs":2.5}"#);
            }
            events.push(r#"{"t_us":4,"ev":"run-end","events_processed":4,"scheduled_total":4,"max_queue_depth":1}"#);
            replay_file(&trace(&events)).unwrap()
        };
        let (plain, preempted) = (run(false), run(true));
        assert_eq!(preempted.events, plain.events + 1);
        assert_eq!(preempted.queue_enters, plain.queue_enters);
        assert_eq!(preempted.queue_exits, plain.queue_exits);
    }

    #[test]
    fn queue_exit_after_preempting_the_queued_job_is_flagged() {
        let text = trace(&[
            r#"{"t_us":1,"ev":"queue-enter","job":7,"cores":2,"depth":1,"est_us":null}"#,
            r#"{"t_us":2,"ev":"tenant-preempt","job":7,"victim_tenant":1,"starved_tenant":0,"work_lost_core_secs":0}"#,
            r#"{"t_us":3,"ev":"queue-exit","job":7,"cores":2,"est_us":null,"actual_us":2,"relieved":false}"#,
            r#"{"t_us":4,"ev":"run-end","events_processed":4,"scheduled_total":4,"max_queue_depth":1}"#,
        ]);
        let err = replay_file(&text).unwrap_err();
        assert!(
            err.contains("queue-exit for job 7 with no matching entry"),
            "{err}"
        );
    }

    #[test]
    fn future_dated_recovery_events_replay_clean() {
        // A spin-up retried under fault backoff is future-dated, ahead
        // of later-recorded events; a cancelled in-flight acquisition is
        // even released at a time before its own spin-up event. Replay
        // follows recording (causal) order, so both are clean.
        let text = trace(&[
            r#"{"t_us":100,"ev":"recovery-retry","attempt":2,"backoff_us":50}"#,
            r#"{"t_us":100,"ev":"instance-spin-up","instance":1,"itype":"m-16","vcpus":16,"spot":false,"spin_up_us":5}"#,
            r#"{"t_us":7,"ev":"instance-spin-up","instance":2,"itype":"m-16","vcpus":16,"spot":false,"spin_up_us":5}"#,
            r#"{"t_us":40,"ev":"instance-released","instance":1}"#,
            r#"{"t_us":200,"ev":"run-end","events_processed":5,"scheduled_total":5,"max_queue_depth":0}"#,
        ]);
        let stats = replay_file(&text).unwrap();
        assert_eq!(stats.spin_ups, 2);
        assert_eq!(stats.releases, 1);
    }

    #[test]
    fn release_recorded_before_its_spin_up_is_flagged() {
        let text = trace(&[
            r#"{"t_us":2,"ev":"instance-released","instance":0}"#,
            r#"{"t_us":5,"ev":"instance-spin-up","instance":0,"itype":"m-16","vcpus":16,"spot":false,"spin_up_us":5}"#,
            r#"{"t_us":9,"ev":"run-end","events_processed":3,"scheduled_total":3,"max_queue_depth":0}"#,
        ]);
        let err = replay_file(&text).unwrap_err();
        assert!(err.contains("unknown instance 0"), "{err}");
    }

    #[test]
    fn truncated_body_is_flagged() {
        let mut text = trace(&[
            r#"{"t_us":1,"ev":"run-end","events_processed":1,"scheduled_total":1,"max_queue_depth":0}"#,
        ]);
        text = text.replace("\"events\":1", "\"events\":2");
        let err = replay_file(&text).unwrap_err();
        assert!(err.contains("declares 2 events"), "{err}");
    }

    #[test]
    fn missing_run_end_is_flagged() {
        let text = trace(&[r#"{"t_us":1,"ev":"progress","events_processed":1,"queue_depth":0}"#]);
        let err = replay_file(&text).unwrap_err();
        assert!(err.contains("no run-end"), "{err}");
    }
}

//! The report fold: events, groups, recoveries, spans and telemetry
//! counters of a finished run.

use super::*;

impl Lowered {
    /// Folds a finished run into the report and the event stream, and the
    /// service logs into the telemetry registry.
    pub(super) fn fold(&self, done: Finished) -> ClusterRun {
        let Finished {
            run,
            sim,
            state,
            logs,
            group_logs,
            mode_plans,
            watchdog,
        } = done;
        let network = sim.network_stats();

        // ---- fold everything into the report ----
        // Classification runs against the *applied* fault plan —
        // scripted replays and reactive injections alike — not the
        // static plan, so reactive faults are first-class citizens of
        // the report.
        let (applied, events, mut node_reports, requests, deliveries) = {
            let mut state = state.borrow_mut();
            state.release_held(Time::MAX);
            (
                std::mem::take(&mut state.applied),
                std::mem::take(&mut state.events),
                std::mem::take(&mut state.node_reports),
                std::mem::take(&mut state.requests),
                std::mem::take(&mut state.deliveries),
            )
        };
        debug_assert_eq!(
            applied.crash_windows(),
            sim.fault_plan().crash_windows(),
            "the report's outages must be the network's"
        );
        for r in &mut node_reports {
            let windows = applied.windows_of(NodeId(r.node));
            r.crashed_at = windows.first().map(|w| w.crash_at);
            r.restarted_at = windows.first().and_then(|w| w.restart_at);
        }
        let (detections, failovers, handoffs) = fold_events(&events, &applied);
        let heartbeats_seen = logs.iter().map(|l| l.borrow().heartbeats_seen).sum();
        let survivors: Vec<u32> = (0..self.spec.nodes)
            .filter(|n| applied.windows_of(NodeId(*n)).is_empty())
            .collect();
        let view_history: Vec<(u32, Vec<u32>)> = survivors
            .first()
            .map(|n| logs[*n as usize].borrow().view_members())
            .unwrap_or_default();
        let views_agree = survivors
            .iter()
            .all(|n| logs[*n as usize].borrow().view_members() == view_history);
        let recoveries = self.recoveries(&logs, &applied, &detections);
        let mode_changes: Vec<report::ModeChangeRecord> = mode_plans
            .iter()
            .map(|p| {
                let first_new_completion = p
                    .introduced
                    .iter()
                    .filter_map(|t| run.outcome(*t)?.first_completion)
                    .min();
                report::ModeChangeRecord {
                    at: p.at,
                    carryover: p.carryover,
                    immediate_feasible: p.immediate_feasible,
                    safe_offset: p.safe_offset,
                    new_mode_released_at: p.release_at,
                    first_new_completion,
                    transition_latency: first_new_completion.map_or(p.safe_offset, |f| f - p.at),
                }
            })
            .collect();

        let groups = self.group_reports(&group_logs, &requests, &applied, &handoffs);
        let view_changes = view_history
            .last()
            .map(|(number, _)| *number)
            .unwrap_or_default();
        let pairs = (self.spec.nodes as u64) * (self.spec.nodes as u64 - 1);
        let words = hades_services::MemberSet::wire_words(self.spec.nodes) as u64;
        let view_change = report::ViewChangeStats {
            transport: if self.spec.middleware.delta_multicast_vc {
                "delta-multicast"
            } else {
                "flood"
            },
            messages: logs.iter().map(|l| l.borrow().vc_messages_sent).sum(),
            view_changes,
            flood_equivalent: (self.spec.middleware.f as u64 + 1)
                * pairs
                * words
                * view_changes as u64,
            multicast_equivalent: pairs * words * view_changes as u64,
        };
        let join_retries = logs.iter().map(|l| l.borrow().join_retries).sum();

        // ---- fold the service logs into the telemetry registry ----
        // No-ops against the default disabled registry; with an enabled
        // one these land in the deterministic snapshot next to the
        // engine/dispatcher counters the run published through its probe.
        let t = &self.spec.telemetry;
        t.counter("agents.heartbeats_sent")
            .add(logs.iter().map(|l| l.borrow().heartbeats_sent).sum());
        t.counter("agents.heartbeats_suppressed")
            .add(logs.iter().map(|l| l.borrow().heartbeats_suppressed).sum());
        t.counter("agents.heartbeats_seen").add(heartbeats_seen);
        t.counter("agents.vc_messages").add(view_change.messages);
        t.counter("agents.transfers_served")
            .add(logs.iter().map(|l| l.borrow().transfers_served).sum());
        t.counter("agents.chunks_sent")
            .add(logs.iter().map(|l| l.borrow().chunks_sent).sum());
        t.counter("agents.join_retries").add(join_retries);
        t.counter("recovery.bytes_transferred")
            .add(recoveries.iter().map(|r| r.bytes_transferred).sum());
        t.counter("recovery.log_entries_replayed")
            .add(recoveries.iter().map(|r| r.log_entries_replayed).sum());
        for gr in &groups {
            t.counter("group.messages").add(gr.messages);
            t.counter("group.requests_submitted").add(gr.submitted);
            t.counter("group.outputs").add(gr.outputs);
            t.counter("group.duplicates_suppressed")
                .add(gr.duplicates_suppressed);
            t.counter("group.replayed").add(gr.replayed);
        }

        let report = report::ClusterReport {
            nodes: self.spec.nodes,
            seed: self.spec.seed,
            finished_at: run.finished_at,
            node_reports,
            detections,
            detection_bound: self.spec.detection_bound(),
            view_history,
            views_agree,
            failovers,
            recoveries,
            scripted_rejoins: applied.restarts().len() as u32,
            rejoin_bound: self.spec.rejoin_bound(),
            mode_changes,
            groups,
            view_change,
            join_retries,
            heartbeats_seen,
            network,
            scheduler_cpu: run.scheduler_cpu,
            kernel_cpu: run.kernel_cpu,
        };
        // The event stream is exactly what the drivers saw, re-sorted
        // under the documented deterministic tie-break.
        let mut cluster_run = ClusterRun::new(report, events);
        if let Some(dog) = &watchdog {
            cluster_run = cluster_run.with_violations(dog.borrow().violations());
        }
        if self.spec.telemetry.is_enabled() {
            let spans = self.build_spans(
                cluster_run.report(),
                cluster_run.events(),
                &requests,
                &deliveries,
            );
            self.spec
                .telemetry
                .counter("telemetry.spans_dropped")
                .add(spans.spans_dropped());
            cluster_run = cluster_run.with_telemetry(RunTelemetry {
                metrics: self.spec.telemetry.snapshot(),
                spans,
            });
        }
        if self.spec.profile.is_enabled() {
            cluster_run = cluster_run.with_profile(self.spec.profile.report());
        }
        cluster_run
    }

    /// Builds the protocol trace spans from the finished run's records.
    ///
    /// Spans are built post-run from the report's own records and the
    /// requests and deliveries the control plane folded from the tap, so
    /// they cost little during simulation;
    /// every timestamp is the engine instant an agent or group member
    /// logged or observed, ids are minted in a fixed record order
    /// (recoveries, failovers, group handoffs, view agreements, client
    /// requests), so the span log — like the metrics snapshot — is a
    /// deterministic function of spec and seed.
    fn build_spans(
        &self,
        report: &report::ClusterReport,
        events: &[crate::ClusterEvent],
        request_folds: &[RequestFold],
        deliveries: &[DeliveryFold],
    ) -> SpanLog {
        let mut spans = match self.spec.span_cap {
            Some(cap) => SpanLog::with_cap(cap),
            None => SpanLog::new(),
        };
        // Rejoins: one root per completed crash→restart→readmit cycle,
        // phased by the protocol's decomposition. The detect child hangs
        // off the same span: the survivors' suspicion is what makes the
        // later announce land in a view that excluded the joiner.
        for r in &report.recoveries {
            let end = r.restarted_at + r.rejoin_latency;
            let root = spans.root(
                "rejoin",
                &format!("node {} rejoin -> view {}", r.node, r.readmitted_view),
                Some(r.node),
                r.restarted_at,
                end,
            );
            if let Some(detected) = r.detected_at {
                spans.child(
                    root,
                    "detect",
                    "crash detected by survivors",
                    Some(r.node),
                    r.crashed_at,
                    detected,
                );
            }
            let announce_end = r.restarted_at + r.announce_latency;
            let transfer_end = announce_end + r.transfer_latency;
            spans.phase(root, "announce", r.restarted_at, announce_end);
            spans.phase(root, "transfer+replay", announce_end, transfer_end);
            spans.phase(
                root,
                "readmit",
                transfer_end,
                transfer_end + r.readmit_latency,
            );
        }
        // Failovers: crash → promoting view install, decomposed into the
        // detection and agreement components when a matching suspicion
        // exists.
        let mut failover_spans: Vec<(hades_telemetry::SpanId, u32, Time)> = Vec::new();
        for f in &report.failovers {
            let root = spans.root(
                "failover",
                &format!("primary {} -> {}", f.failed_primary, f.new_primary),
                Some(f.new_primary),
                f.crashed_at,
                f.taken_over_at,
            );
            let detected = report
                .detections
                .iter()
                .filter(|d| {
                    d.suspect == f.failed_primary
                        && d.suspected_at >= f.crashed_at
                        && d.suspected_at <= f.taken_over_at
                })
                .map(|d| d.suspected_at)
                .min();
            if let Some(det) = detected {
                spans.phase(root, "detect", f.crashed_at, det);
                spans.phase(root, "agree", det, f.taken_over_at);
            }
            failover_spans.push((root, f.failed_primary, f.crashed_at));
        }
        // Group-leadership takeovers: children of the failover that
        // evicted the old leader, roots when none did (driver-injected
        // retunes, restarts without a primary crash).
        for gr in &report.groups {
            for h in &gr.handoffs {
                let parent = failover_spans
                    .iter()
                    .filter(|(_, failed, at)| *failed == h.from && *at <= h.at)
                    .max_by_key(|(_, _, at)| *at)
                    .copied();
                let label = format!("group {} leadership {} -> {}", h.group, h.from, h.to);
                match parent {
                    Some((p, _, crashed_at)) => {
                        spans.child(p, "takeover", &label, Some(h.to), crashed_at, h.at);
                    }
                    None => {
                        spans.root("takeover", &label, Some(h.to), h.at, h.at);
                    }
                }
            }
        }
        // View agreements: each install spans from the suspicion that
        // (most recently) preceded it to the first member's install.
        let mut last_detect: Option<Time> = None;
        for e in events {
            match e {
                crate::ClusterEvent::Detected { at, .. } => last_detect = Some(*at),
                crate::ClusterEvent::ViewInstalled {
                    number,
                    members,
                    at,
                } => {
                    let start = last_detect.filter(|d| *d <= *at).unwrap_or(*at);
                    spans.root(
                        "view",
                        &format!("view {} ({} members)", number, members.len()),
                        None,
                        start,
                        *at,
                    );
                }
                _ => {}
            }
        }
        // Client requests through the Δ-atomic multicast: submission →
        // first client-visible output, phased order → deliver → emit.
        for (g, (fold, order)) in request_folds.iter().zip(deliveries).enumerate() {
            for (id, sub) in &fold.submitted_at {
                let Some(out) = fold.output_at.get(id) else {
                    continue;
                };
                let root = spans.root(
                    "request",
                    &format!("group {g} request {id}"),
                    None,
                    *sub,
                    (*out).max(*sub),
                );
                if let Some((ts, delivered)) = order.get(*id) {
                    let ts = ts.max(*sub);
                    let delivered = delivered.max(ts);
                    spans.phase(root, "order", *sub, ts);
                    spans.phase(root, "deliver", ts, delivered);
                    spans.phase(root, "emit", delivered, (*out).max(delivered));
                }
            }
        }
        spans
    }

    /// Folds every group's member logs and its request fold into its
    /// report section.
    fn group_reports(
        &self,
        group_logs: &[Vec<Rc<RefCell<GroupLog>>>],
        requests: &[RequestFold],
        applied: &FaultPlan,
        handoffs: &[report::GroupHandoff],
    ) -> Vec<report::GroupReport> {
        let delta = self.spec.group_delta();
        let mut out = Vec::new();
        let response_hist = self.spec.telemetry.histogram("group.response_ns");
        for (g, ((group, glogs), fold)) in
            self.groups.iter().zip(group_logs).zip(requests).enumerate()
        {
            let logs: Vec<Ref<'_, GroupLog>> = glogs.iter().map(|l| l.borrow()).collect();
            // Reference order: the first member never down (reactive
            // injections included); when every member restarted at some
            // point, the longest delivery log stands in (identical full
            // sequences cannot be demanded of restarted members, so
            // agreement then means subsequence consistency, never a
            // vacuous true).
            let full_time: Vec<usize> = group
                .members
                .iter()
                .enumerate()
                .filter(|(_, m)| applied.windows_of(NodeId(**m)).is_empty())
                .map(|(i, _)| i)
                .collect();
            let reference_idx = full_time.first().copied().unwrap_or_else(|| {
                (0..logs.len())
                    .max_by_key(|i| logs[*i].delivered.len())
                    .unwrap_or(0)
            });
            let reference = &logs[reference_idx].delivered;
            let order_consistent = logs.iter().all(|l| l.order_consistent_with(reference));
            let order_agreement = if full_time.is_empty() {
                order_consistent
            } else {
                full_time.iter().all(|i| logs[*i].delivered == *reference)
            };
            let (submitted_at, output_at) = (&fold.submitted_at, &fold.output_at);
            let outputs = output_at.len() as u64;
            let output_bound = delta + self.spec.link.delay_max;
            let mut on_time = 0u64;
            let mut delayed = 0u64;
            let mut worst: Option<Duration> = None;
            let mut response_ns: Vec<u64> = Vec::with_capacity(output_at.len());
            for (id, at) in output_at {
                let Some(sub) = submitted_at.get(id) else {
                    continue;
                };
                let latency = *at - *sub;
                response_hist.record(latency.as_nanos());
                response_ns.push(latency.as_nanos());
                worst = Some(worst.map_or(latency, |w| w.max(latency)));
                if latency <= output_bound {
                    on_time += 1;
                } else {
                    delayed += 1;
                }
            }
            response_ns.sort_unstable();
            // Client-visible duplicates: surplus emissions for active
            // replication are the redundant copies the voter absorbs
            // (the members' own per-vote suppression counters observe
            // each copy multiple times and would overstate it), not
            // duplicates.
            let surplus = fold.emissions - outputs;
            let (duplicate_outputs, duplicates_suppressed) = match group.style {
                ReplicaStyle::Active => (0, surplus),
                _ => (surplus, logs.iter().map(|l| l.suppressed).sum()),
            };
            let abandoned = group.source.borrow().abandoned();
            self.spec
                .telemetry
                .counter("group.requests_abandoned")
                .add(abandoned);
            self.spec
                .telemetry
                .counter("group.late_discards")
                .add(logs.iter().map(|l| l.late_discards).sum());
            out.push(report::GroupReport {
                group: g as u32,
                style_name: group.style.name(),
                members: group.members.clone(),
                submitted: submitted_at.len() as u64,
                delivered: reference.len() as u64,
                order_agreement,
                order_consistent,
                outputs,
                duplicate_outputs,
                duplicates_suppressed,
                handoffs: handoffs
                    .iter()
                    .filter(|h| h.group == g as u32)
                    .copied()
                    .collect(),
                delivery_bound: delta,
                output_bound,
                on_time_outputs: on_time,
                delayed_outputs: delayed,
                worst_latency: worst,
                messages: logs.iter().map(|l| l.messages_sent).sum(),
                replayed: logs.iter().map(|l| l.replayed).sum(),
                catchups: logs.iter().map(|l| l.catchups).sum(),
                vote_mismatches: logs.iter().map(|l| l.vote_mismatches).sum(),
                abandoned,
                response_ns,
            });
        }
        out
    }

    /// Joins each completed rejoin cycle with its applied down window and
    /// the survivors' first detection of the crash.
    fn recoveries(
        &self,
        logs: &[Rc<RefCell<AgentLog>>],
        applied: &FaultPlan,
        detections: &[report::DetectionRecord],
    ) -> Vec<report::RecoveryRecord> {
        let mut out = Vec::new();
        for node in 0..self.spec.nodes {
            let rejoins = logs[node as usize].borrow().rejoins.clone();
            for rj in rejoins {
                let Some(crashed_at) = applied
                    .windows_of(NodeId(node))
                    .iter()
                    .find(|w| w.restart_at == Some(rj.restarted_at))
                    .map(|w| w.crash_at)
                else {
                    continue;
                };
                let detected_at = detections
                    .iter()
                    .filter(|d| d.suspect == node && d.observer != node)
                    .map(|d| d.suspected_at)
                    .find(|at| *at >= crashed_at && *at < rj.restarted_at);
                out.push(report::RecoveryRecord {
                    node,
                    crashed_at,
                    restarted_at: rj.restarted_at,
                    detected_at,
                    detect_latency: detected_at.map(|d| d - crashed_at),
                    announce_latency: rj.announce_latency(),
                    transfer_latency: rj.transfer_latency(),
                    readmit_latency: rj.readmit_latency(),
                    rejoin_latency: rj.latency(),
                    readmitted_view: rj.view,
                    views_traversed: rj.views_traversed,
                    bytes_transferred: rj.bytes,
                    chunks: rj.chunks,
                    chunks_resent: rj.chunks_resent,
                    log_entries_replayed: rj.log_entries,
                    delta: rj.delta,
                });
            }
        }
        out.sort_by_key(|r| (r.restarted_at, r.node));
        out
    }
}

/// The report sections read from the event stream the drivers saw:
/// detections (classified online, sorted by instant, observer and
/// suspect), failovers in takeover order, and group handoffs (sorted by
/// instant and new leader). A failover's crash is the applied window the
/// old primary was down in when its successor took over.
fn fold_events(
    events: &[crate::ClusterEvent],
    applied: &FaultPlan,
) -> (
    Vec<report::DetectionRecord>,
    Vec<report::FailoverRecord>,
    Vec<report::GroupHandoff>,
) {
    let (mut detections, mut failovers, mut handoffs) = (Vec::new(), Vec::new(), Vec::new());
    for e in events {
        match *e {
            crate::ClusterEvent::Detected {
                observer,
                suspect,
                at,
                latency,
            } => detections.push(report::DetectionRecord {
                suspect,
                observer,
                crashed_at: latency
                    .map(|l| at - l)
                    .or_else(|| applied.crash_time(NodeId(suspect))),
                suspected_at: at,
                latency,
            }),
            crate::ClusterEvent::FailedOver {
                failed_primary,
                new_primary,
                at,
            } => {
                if let Some(crashed_at) = applied.down_since(NodeId(failed_primary), at) {
                    failovers.push(report::FailoverRecord {
                        failed_primary,
                        crashed_at,
                        new_primary,
                        taken_over_at: at,
                        latency: at - crashed_at,
                    });
                }
            }
            crate::ClusterEvent::Handoff {
                group,
                from,
                to,
                at,
            } => handoffs.push(report::GroupHandoff {
                group,
                from,
                to,
                at,
            }),
            _ => {}
        }
    }
    detections.sort_by_key(|d| (d.suspected_at, d.observer, d.suspect));
    handoffs.sort_by_key(|h| (h.at, h.to));
    (detections, failovers, handoffs)
}

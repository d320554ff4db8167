#include "core/report.hpp"

#include "obs/build_info.hpp"

namespace firefly::core {

void write_sample_json(obs::JsonWriter& w, const util::Sample& sample) {
  w.begin_object();
  w.field("count", static_cast<std::uint64_t>(sample.count()));
  w.field("mean", sample.mean());
  w.field("stddev", sample.stddev());
  w.field("ci95", sample.ci95_halfwidth());
  w.field("p50", sample.percentile(50.0));
  w.field("p90", sample.percentile(90.0));
  w.field("p99", sample.percentile(99.0));
  w.end_object();
}

void write_memory_report_json(obs::JsonWriter& w, const MemoryReport& report) {
  w.begin_object();
  for (const MemoryReport::Entry& e : report.entries) {
    w.field(e.name, static_cast<std::uint64_t>(e.bytes));
  }
  w.field("total", static_cast<std::uint64_t>(report.total_bytes()));
  w.end_object();
}

void write_run_metrics_json(obs::JsonWriter& w, const RunMetrics& m) {
  w.begin_object();
  w.field("converged", m.converged);
  w.field("convergence_ms", m.convergence_ms);
  w.field("sync_ms", m.sync_ms);
  w.field("discovery_ms", m.discovery_ms);
  w.field("locally_converged", m.locally_converged);
  w.field("local_sync_ms", m.local_sync_ms);
  w.field("rach1_messages", m.rach1_messages);
  w.field("rach2_messages", m.rach2_messages);
  w.field("total_messages", m.total_messages());
  w.field("collisions", m.collisions);
  w.field("deliveries", m.deliveries);
  w.field("mean_neighbors_discovered", m.mean_neighbors_discovered);
  w.field("mean_service_peers", m.mean_service_peers);
  w.field("ranging_mean_abs_rel_error", m.ranging_mean_abs_rel_error);
  w.field("ranging_p90_rel_error", m.ranging_p90_rel_error);
  w.field("final_fragments", static_cast<std::uint64_t>(m.final_fragments));
  w.field("tree_edges", static_cast<std::uint64_t>(m.tree_edges));
  w.field("tree_weight_dbm", m.tree_weight_dbm);
  w.field("tree_service_affinity", m.tree_service_affinity);
  w.field("desync_error", m.desync_error);
  w.field("desync_spread_slots", m.desync_spread_slots);
  w.field("total_energy_mj", m.total_energy_mj);
  w.field("mean_device_energy_mj", m.mean_device_energy_mj);
  w.field("energy_per_neighbor_mj", m.energy_per_neighbor_mj);
  w.field("crashes", static_cast<std::uint64_t>(m.crashes));
  w.field("recoveries", static_cast<std::uint64_t>(m.recoveries));
  w.field("fade_episodes", static_cast<std::uint64_t>(m.fade_episodes));
  w.field("fault_drops", m.fault_drops);
  w.field("resyncs", static_cast<std::uint64_t>(m.resyncs));
  w.field("mean_resync_ms", m.mean_resync_ms);
  w.field("max_resync_ms", m.max_resync_ms);
  w.field("sync_uptime", m.sync_uptime);
  w.field("in_sync_at_end", m.in_sync_at_end);
  w.field("repair_messages", m.repair_messages);
  w.field("alive_at_end", static_cast<std::uint64_t>(m.alive_at_end));
  w.field("partitioned", m.partitioned);
  w.field("events_processed", m.events_processed);
  w.field("simulated_ms", m.simulated_ms);
  w.end_object();
}

void write_sweep_point_json(obs::JsonWriter& w, const SweepPoint& point,
                            Protocol protocol, const char* bench) {
  w.begin_object();
  w.field("bench", bench);
  w.field("protocol", to_string(protocol));
  w.field("n", static_cast<std::uint64_t>(point.n));
  w.field("trials", static_cast<std::uint64_t>(point.trials));
  w.field("failure_rate", point.failure_rate);
  w.key("convergence_ms");
  write_sample_json(w, point.convergence_ms);
  w.key("total_messages");
  write_sample_json(w, point.total_messages);
  w.key("rach1_messages");
  write_sample_json(w, point.rach1_messages);
  w.key("rach2_messages");
  write_sample_json(w, point.rach2_messages);
  w.key("collisions");
  write_sample_json(w, point.collisions);
  w.key("neighbors_discovered");
  write_sample_json(w, point.neighbors_discovered);
  w.key("ranging_error");
  write_sample_json(w, point.ranging_error);
  w.end_object();
}

void write_soak_header_json(obs::JsonWriter& w, Protocol protocol,
                            const ScenarioConfig& config,
                            const ServiceConfig& service) {
  w.begin_object();
  w.field("schema", "firefly-soak-v1");
  obs::write_build_info_fields(w);
  w.field("protocol", to_string(protocol));
  w.field("n", static_cast<std::uint64_t>(config.n));
  w.field("seed", config.seed);
  w.field("duration_slots", service.duration_slots);
  w.field("window_slots", service.window_slots);
  w.field("snapshot_every_slots", service.snapshot_every_slots);
  w.field("dedup_clear_periods",
          static_cast<std::uint64_t>(service.dedup_clear_periods));
  w.field("relabel_cap_per_period",
          static_cast<std::uint64_t>(service.relabel_cap_per_period));
  w.field("churn_rate_per_min", config.protocol.faults.churn_rate_per_min);
  w.field("mean_downtime_ms", config.protocol.faults.mean_downtime_ms);
  w.end_object();
}

void write_soak_window_json(obs::JsonWriter& w, const sim::SoakWindow& win) {
  w.begin_object();
  w.key("window");
  w.begin_object();
  w.field("index", win.index);
  w.field("start_slot", win.start_slot);
  w.field("end_slot", win.end_slot);
  w.field("live_devices", static_cast<std::uint64_t>(win.live_devices));
  w.field("crashes", static_cast<std::uint64_t>(win.crashes));
  w.field("recoveries", static_cast<std::uint64_t>(win.recoveries));
  w.field("messages", win.messages);
  w.field("deliveries", win.deliveries);
  w.field("collisions", win.collisions);
  w.field("fault_drops", win.fault_drops);
  w.field("msg_rate_per_slot", win.msg_rate_per_slot);
  w.field("synced_once", win.synced_once);
  w.field("sync_fraction", win.sync_fraction);
  w.field("resyncs", static_cast<std::uint64_t>(win.resyncs));
  w.field("mean_resync_ms", win.mean_resync_ms);
  w.field("relabels", win.relabels);
  w.field("relabels_suppressed", win.relabels_suppressed);
  w.field("desync_error", win.desync_error);
  w.field("events_live", static_cast<std::uint64_t>(win.events_live));
  w.field("arena_capacity", static_cast<std::uint64_t>(win.arena_capacity));
  w.field("arena_high_water", static_cast<std::uint64_t>(win.arena_high_water));
  w.field("events_processed", win.events_processed);
  w.end_object();
  w.end_object();
}

void write_soak_summary_json(obs::JsonWriter& w, const ServiceReport& report) {
  w.begin_object();
  w.key("summary");
  w.begin_object();
  w.field("windows", report.windows);
  w.field("windows_dropped", report.windows_dropped);
  w.field("snapshots", report.snapshots);
  w.field("relabels", report.relabels);
  w.field("relabels_suppressed", report.relabels_suppressed);
  w.field("arena_capacity", report.arena_capacity);
  w.field("arena_high_water", report.arena_high_water);
  w.key("metrics");
  write_run_metrics_json(w, report.metrics);
  w.end_object();
  w.end_object();
}

}  // namespace firefly::core

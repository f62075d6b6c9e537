#include "serving.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "graph/connectivity.hpp"
#include "graph/generators.hpp"

namespace perfbench {
namespace {

constexpr eng::ServiceErrorCode kErrorCodes[] = {
    eng::ServiceErrorCode::unknown_fingerprint, eng::ServiceErrorCode::invalid_request,
    eng::ServiceErrorCode::invalid_config,      eng::ServiceErrorCode::malformed_message,
    eng::ServiceErrorCode::version_mismatch,    eng::ServiceErrorCode::unavailable,
    eng::ServiceErrorCode::transport,           eng::ServiceErrorCode::timeout,
    eng::ServiceErrorCode::stale_map,           eng::ServiceErrorCode::stale_epoch};

/// Runs fn, mapping a thrown failure to its error name; "" on success.
template <typename Fn>
std::string error_name_of(Fn&& fn) {
  try {
    fn();
    return "";
  } catch (const eng::ServiceError& error) {
    return std::string(eng::service_error_name(error.code()));
  } catch (const std::exception&) {
    return "other";
  }
}

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

ServingStack::ServingStack(std::size_t budget_bytes_per_shard) {
  eng::cluster::ClusterOptions options;
  options.map.version = 1;
  options.map.replication = 1;
  for (int i = 0; i < 2; ++i) {
    eng::PoolOptions pool;
    pool.workers = 1;
    pool.memory_budget_bytes = budget_bytes_per_shard;
    pool.shard_id = i;
    eng::RemoteOptions client;
    client.stripes = 1;
    client.request_timeout = std::chrono::milliseconds(10000);
    members.push_back(std::make_shared<eng::LoopbackShard>(
        std::make_unique<eng::LocalService>(pool), cliquest::engine::transport::ServerOptions{},
        client, eng::LoopbackTransport::pipe));
    options.map.members.push_back({i, "", 0, 1.0});
  }
  cluster = std::make_unique<eng::cluster::ClusterService>(
      [this](const eng::cluster::ShardDescriptor& member)
          -> std::shared_ptr<eng::SamplerService> {
        return members.at(static_cast<std::size_t>(member.shard_id));
      },
      options);
}

ServingStack::~ServingStack() {
  cluster.reset();  // joins its per-batch threads before the members go
  members.clear();
}

std::vector<eng::Fingerprint> admit_slots(eng::SamplerService& service,
                                          const OpenLoopPlan& plan) {
  std::vector<eng::Fingerprint> fps;
  fps.reserve(plan.slots.size());
  for (const SlotEntry& slot : plan.slots)
    fps.push_back(service.admit({*slot.graph, slot.options}));
  return fps;
}

eng::wire::Bytes canonical_bytes(eng::BatchResponse response) {
  response.hit = false;
  response.shard = 0;
  response.batch.report.prepare_builds = 0;
  response.batch.report.prepare_seconds = 0.0;
  for (eng::DrawStats& draw : response.batch.report.draws) draw.seconds = 0.0;
  return eng::wire::encode(response);
}

OpenLoopResult run_open_loop(eng::cluster::ClusterService& service,
                             const OpenLoopPlan& plan,
                             const std::vector<eng::Fingerprint>& slot_fps,
                             bool trace, Report& report) {
  OpenLoopResult result;
  result.batches.resize(plan.batches.size());

  struct InFlight {
    std::size_t op = 0;
    Clock::time_point due;
    Clock::time_point issued;
    std::future<eng::BatchResponse> future;
  };

  // The slot -> current (fingerprint, entry) table, and per fingerprint the
  // batches issued on it that have not completed yet.
  std::mutex slots_mutex;
  std::condition_variable drained;
  std::vector<eng::Fingerprint> current_fp = slot_fps;
  std::vector<SlotEntry> current_entry = plan.slots;
  std::unordered_map<eng::Fingerprint, std::int64_t> open_batches;

  std::mutex incoming_mutex;
  std::vector<InFlight> incoming;
  std::atomic<std::int64_t> in_flight{0};
  std::atomic<bool> batches_done{false};
  std::atomic<bool> writes_done{false};

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](double offset) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(offset));
  };

  std::vector<double> batch_late_us;
  std::vector<double> write_late_us;
  std::map<std::string, std::int64_t> write_failures;  // merged after the join

  std::thread batch_thread([&] {
    std::unordered_map<eng::Fingerprint, std::int64_t> cursors;
    for (std::size_t i = 0; i < plan.batches.size(); ++i) {
      const BatchOp& op = plan.batches[i];
      const Clock::time_point due = due_at(op.due);
      std::this_thread::sleep_until(due);
      batch_late_us.push_back(micros(Clock::now() - due));
      BatchOutcome& outcome = result.batches[i];
      {
        const std::lock_guard<std::mutex> lock(slots_mutex);
        outcome.fingerprint = current_fp[static_cast<std::size_t>(op.slot)];
        outcome.entry = current_entry[static_cast<std::size_t>(op.slot)];
        ++open_batches[outcome.fingerprint];
      }
      std::int64_t& cursor = cursors[outcome.fingerprint];
      outcome.expected_first = cursor;
      cursor += op.draws;
      in_flight.fetch_add(1);
      const Clock::time_point issued = Clock::now();
      std::future<eng::BatchResponse> future =
          service.submit_batch({outcome.fingerprint, op.draws});
      result.submit_us.push_back(micros(Clock::now() - issued));
      const std::lock_guard<std::mutex> lock(incoming_mutex);
      incoming.push_back({i, due, issued, std::move(future)});
    }
    result.backlog_end = in_flight.load();
    batches_done.store(true);
  });

  std::thread write_thread([&] {
    for (const WriteOp& op : plan.writes) {
      const SlotEntry entry = plan.fresh_entry(op);
      const Clock::time_point due = due_at(op.due);
      std::this_thread::sleep_until(due);
      write_late_us.push_back(micros(Clock::now() - due));
      const eng::AdmitRequest admit{*entry.graph, entry.options};
      if (trace) {
        result.admit_bytes += static_cast<double>(eng::wire::encode(admit).size());
        ++result.admit_encodes;
      }
      const std::string error = error_name_of([&] {
        const eng::Fingerprint fresh = service.admit(admit);
        eng::Fingerprint retired;
        {
          // Retire, then drop: publishing the fresh slot stops new batches
          // on the old fingerprint, and the drop waits until the batches
          // already issued on it have completed. A drop that races a batch
          // still queued on the same fingerprint corrupts the pool's LRU
          // list (see reproduce_drop_race).
          std::unique_lock<std::mutex> lock(slots_mutex);
          retired = current_fp[static_cast<std::size_t>(op.slot)];
          current_fp[static_cast<std::size_t>(op.slot)] = fresh;
          current_entry[static_cast<std::size_t>(op.slot)] = entry;
          drained.wait(lock, [&] { return open_batches.count(retired) == 0; });
        }
        service.drop(retired);
      });
      if (error.empty()) {
        result.admit_ms.push_back(micros(Clock::now() - due) / 1e3);
      } else {
        ++result.write_failures;
        ++write_failures[error];
      }
    }
    writes_done.store(true);
  });

  // Collector: polls the in-flight futures so out-of-order completions are
  // timestamped as they land, not in submission order.
  std::deque<InFlight> pending;
  const auto finish = [&](InFlight& item) {
    const Clock::time_point done = Clock::now();
    const BatchOp& op = plan.batches[item.op];
    BatchOutcome& outcome = result.batches[item.op];
    eng::BatchResponse response;
    outcome.error = error_name_of([&] { response = item.future.get(); });
    in_flight.fetch_sub(1);
    {
      const std::lock_guard<std::mutex> lock(slots_mutex);
      const auto open = open_batches.find(outcome.fingerprint);
      if (--open->second == 0) {
        open_batches.erase(open);
        drained.notify_all();
      }
    }
    if (!outcome.error.empty()) {
      ++result.failures[outcome.error];
      return;
    }
    bool valid = response.first_draw_index == outcome.expected_first &&
                 static_cast<int>(response.batch.trees.size()) == op.draws &&
                 response.fingerprint == outcome.fingerprint;
    for (const cliquest::graph::TreeEdges& tree : response.batch.trees)
      valid = valid && cliquest::graph::is_spanning_tree(*outcome.entry.graph, tree);
    if (!valid) {
      report.check(false, "served batch " + std::to_string(item.op) +
                              " is not a valid pinned batch of spanning trees");
      ++result.failures["invalid_output"];
      return;
    }
    outcome.ok = true;
    outcome.latency_ms = micros(done - item.due) / 1e3;
    result.issued_us.push_back(micros(done - item.issued));
    result.trees_ok += op.draws;
    for (const eng::DrawStats& draw : response.batch.report.draws)
      result.draw_ms.push_back(draw.seconds * 1e3);
    if (trace) {
      const Clock::time_point codec_start = Clock::now();
      const eng::wire::Bytes bytes = eng::wire::encode(response);
      const eng::BatchResponse decoded = eng::wire::decode_batch_response(bytes);
      result.codec_seconds += seconds_between(codec_start, Clock::now());
      result.response_bytes += static_cast<double>(bytes.size());
      ++result.codec_responses;
      if (decoded.batch.trees != response.batch.trees)
        report.check(false, "wire round trip changed a served batch");
    }
    if (op.oracle) outcome.response = std::move(response);
  };
  while (true) {
    {
      const std::lock_guard<std::mutex> lock(incoming_mutex);
      for (InFlight& item : incoming) pending.push_back(std::move(item));
      incoming.clear();
    }
    bool progressed = false;
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
        finish(*it);
        it = pending.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
    if (pending.empty() && batches_done.load() && writes_done.load()) {
      const std::lock_guard<std::mutex> lock(incoming_mutex);
      if (incoming.empty()) break;
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  batch_thread.join();
  write_thread.join();
  for (const auto& [name, count] : write_failures) result.failures[name] += count;
  result.late_us = batch_late_us;
  result.late_us.insert(result.late_us.end(), write_late_us.begin(), write_late_us.end());
  return result;
}

bool reproduce_drop_race() {
  const eng::EngineOptions clique =
      eng::EngineOptions::builder().backend(eng::Backend::congested_clique).seed(11).build();
  const eng::EngineOptions wilson =
      eng::EngineOptions::builder().backend(eng::Backend::wilson).seed(12).build();
  const cliquest::graph::Graph slow = cliquest::graph::lollipop(16, 16);
  auto sizing = eng::make_sampler(slow, clique);
  sizing->prepare();
  const std::size_t budget = sizing->memory_bytes();
  // A drop can only race a queued batch while the worker is still busy
  // ahead of it; longer head batches until the drop lands in that window.
  for (int draws = 2; draws <= 32; draws *= 2) {
    eng::PoolOptions options;
    options.workers = 1;
    options.memory_budget_bytes = budget;
    eng::LocalService service(options);
    const eng::Fingerprint head = service.admit({slow, clique});
    const eng::Fingerprint queued = service.admit({cliquest::graph::lollipop(8, 8), wilson});
    const eng::Fingerprint cold = service.admit({cliquest::graph::lollipop(10, 10), clique});
    std::future<eng::BatchResponse> head_batch = service.submit_batch({head, draws});
    std::future<eng::BatchResponse> queued_batch = service.submit_batch({queued, 1});
    service.drop(queued);
    const bool raced = head_batch.wait_for(std::chrono::seconds(0)) != std::future_status::ready;
    error_name_of([&] { head_batch.get(); });
    error_name_of([&] { queued_batch.get(); });
    if (!raced) continue;
    return !error_name_of([&] { service.sample_batch({cold, 1}); }).empty();
  }
  return false;
}

void report_serving_layers(const eng::cluster::ClusterService& service,
                           const OpenLoopResult& run, std::size_t budget_bytes,
                           Report& report) {
  const eng::ServiceStats stats = service.stats();
  const eng::PoolStats& pool = stats.totals;
  report.set("pool.hits", static_cast<double>(pool.hits), "count");
  report.set("pool.misses", static_cast<double>(pool.misses), "count");
  const double served = static_cast<double>(pool.hits + pool.misses);
  report.set("pool.hit_ratio", served > 0 ? pool.hits / served : 0.0, "ratio");
  report.set("pool.prepares", static_cast<double>(pool.prepares), "count");
  report.set("pool.evictions", static_cast<double>(pool.evictions), "count");
  report.set("pool.schur_cache_trims", static_cast<double>(pool.schur_cache_trims), "count");
  report.set("pool.shed_batches", static_cast<double>(pool.shed_batches), "count");
  std::size_t peak = 0;
  for (const eng::PoolStats& shard : stats.shards)
    peak = std::max(peak, shard.peak_resident_bytes);
  report.set("pool.peak_resident_bytes", static_cast<double>(peak), "bytes");
  report.set("pool.budget_bytes", static_cast<double>(budget_bytes), "bytes");

  const auto hist = [&](const std::string& name,
                        const eng::metrics::HistogramSnapshot& h, bool tail) {
    report.set(name + ".p50", static_cast<double>(h.quantile(0.5)), "us");
    if (tail) report.set(name + ".p99", static_cast<double>(h.quantile(0.99)), "us");
  };
  hist("pool.queue_wait_us", stats.metrics.queue_wait, true);
  hist("pool.serve_us", stats.metrics.batch_serve, true);
  hist("transport.dispatch_us", stats.metrics.dispatch, true);
  hist("remote_service.rtt_us", stats.metrics.remote_rtt, true);

  report.set("cluster.submit_us.p50", median(run.submit_us), "us");
  report.set("cluster.submit_us.p99", quantile(run.submit_us, 0.99), "us");
  report.set("cluster.overhead_us.p50",
             median(run.issued_us) -
                 static_cast<double>(stats.metrics.remote_rtt.quantile(0.5)),
             "us");
  report.set("cluster.shed_retries", static_cast<double>(service.shed_retry_count()), "count");
  report.set("cluster.failovers", static_cast<double>(service.failover_count()), "count");
  report.set("transport.timeouts", static_cast<double>(stats.transport.timeouts), "count");
  report.set("transport.reconnects", static_cast<double>(stats.transport.reconnects), "count");

  const auto per = [](double total, std::int64_t count) {
    return count > 0 ? total / static_cast<double>(count) : 0.0;
  };
  report.set("wire.response_bytes_mean", per(run.response_bytes, run.codec_responses), "bytes");
  report.set("wire.admit_bytes_mean", per(run.admit_bytes, run.admit_encodes), "bytes");
  report.set("wire.codec_us_per_response", per(run.codec_seconds * 1e6, run.codec_responses),
             "us");

  for (const eng::ServiceErrorCode code : kErrorCodes) {
    const std::string name(eng::service_error_name(code));
    const auto it = run.failures.find(name);
    report.set("fail." + name, it == run.failures.end() ? 0.0 : static_cast<double>(it->second),
               "count");
  }
  const auto other = run.failures.find("other");
  report.set("fail.other", other == run.failures.end() ? 0.0 : static_cast<double>(other->second),
             "count");

  report.set("gen.late_us.p99", quantile(run.late_us, 0.99), "us");
  report.set("gen.late_us.max",
             run.late_us.empty() ? 0.0 : *std::max_element(run.late_us.begin(), run.late_us.end()),
             "us");
  report.set("gen.backlog_end", static_cast<double>(run.backlog_end), "count");
}

}  // namespace perfbench

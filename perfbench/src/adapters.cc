#include "adapters.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "dataflow/validate.h"
#include "dsn/parser.h"
#include "dsn/translate.h"

namespace perfbench {

namespace {

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) / 1e9;
}

}  // namespace

sl::Result<SimRun> RunSimulator(const SimSpec& spec,
                                double virtual_ms_per_wall_s,
                                const SimHooks& hooks) {
  sl::StreamLoader loader(spec.options);
  SL_RETURN_IF_ERROR(spec.build_fleet(&loader.fleet()));
  loader.RunFor(spec.warmup);
  SL_ASSIGN_OR_RETURN(sl::dataflow::Dataflow dataflow, spec.build_dataflow());
  if (hooks.on_input) {
    loader.executor().set_source_tap(
        [&hooks](const std::string& source, const sl::stt::TupleRef& tuple,
                 sl::Timestamp at, sl::Timestamp) {
          hooks.on_input(source, tuple, at);
        });
  }

  // Set-up: the textual path of StreamLoader::Deploy, step by step.
  SimRun run;
  int64_t t = NowNs();
  SL_ASSIGN_OR_RETURN(sl::dataflow::ValidationReport report,
                      loader.Validate(dataflow));
  run.setup.validate_s = SecondsSince(t);
  if (!report.ok()) {
    return sl::Status::ValidationError("workload dataflow is invalid:\n" +
                                       report.Render());
  }
  t = NowNs();
  SL_ASSIGN_OR_RETURN(sl::dsn::DsnSpec translated,
                      sl::dsn::TranslateToDsn(dataflow));
  std::string dsn_text = translated.ToString();
  run.setup.translate_s = SecondsSince(t);
  t = NowNs();
  SL_ASSIGN_OR_RETURN(sl::dsn::DsnSpec parsed, sl::dsn::ParseDsn(dsn_text));
  run.setup.parse_s = SecondsSince(t);
  t = NowNs();
  SL_ASSIGN_OR_RETURN(sl::exec::DeploymentId id,
                      loader.executor().Deploy(parsed));
  run.setup.deploy_s = SecondsSince(t);

  run.v0 = loader.Now();
  run.virtual_ms_per_wall_s = virtual_ms_per_wall_s;
  const sl::Timestamp v_end = run.v0 + spec.run_for;
  if (hooks.probe != nullptr) hooks.probe->Start();
  run.start_ns = NowNs();
  if (virtual_ms_per_wall_s <= 0) {
    loader.loop().RunUntil(v_end);
  } else {
    for (;;) {
      const double wall_s = SecondsSince(run.start_ns);
      const auto v = run.v0 + static_cast<sl::Timestamp>(
                                  wall_s * virtual_ms_per_wall_s);
      loader.loop().RunUntil(std::min(v, v_end));
      if (hooks.on_slice) hooks.on_slice(loader.warehouse());
      if (v >= v_end) break;
    }
  }
  run.end_ns = NowNs();
  if (hooks.probe != nullptr) hooks.probe->Stop();

  for (size_t i = 0; i < hooks.monitor_samples; ++i) {
    int64_t s = NowNs();
    (void)loader.monitor().Sample();
    run.monitor_sample_ns.push_back(static_cast<double>(NowNs() - s));
  }
  SL_ASSIGN_OR_RETURN(const sl::exec::DeploymentStats* stats,
                      loader.executor().stats(id));
  run.stats = *stats;
  for (const std::string& op : dataflow.OperatorNames()) {
    SL_ASSIGN_OR_RETURN(run.op_stats[op],
                        loader.executor().OperatorStatsOf(id, op));
  }
  for (const std::string& name : dataflow.topological_order()) {
    auto node = loader.executor().AssignedNode(id, name);
    if (node.ok()) run.placement[name] = *node;
  }
  run.net_messages = loader.network().total_messages();
  run.net_bytes = loader.network().total_bytes_sent();
  run.loop_events = loader.loop().events_executed();
  for (const std::string& dataset : loader.warehouse().DatasetNames()) {
    SL_ASSIGN_OR_RETURN(run.datasets[dataset],
                        loader.warehouse().Query(dataset, {}));
  }
  run.schemas = report.schemas;
  run.dataflow = std::move(dataflow);
  return run;
}

// ---------------------------------------------------------------------------

size_t PoolSize() {
  // Generator + pool stay one core short of the machine: on a 4-core
  // container a 3-worker pool ran bimodally (0.40M vs 0.52M inputs/s on
  // live_chain from one repetition to the next), a 2-worker pool steadily
  // at 0.52-0.60M.
  const size_t cores = std::max(3u, std::thread::hardware_concurrency());
  return cores - 2;
}

sl::Result<ThreadedRun> RunThreaded(const ThreadedSpec& spec,
                                    const std::vector<FeedItem>& inputs,
                                    double inputs_per_s,
                                    const ThreadedHooks& hooks) {
  sl::exec::ThreadedOptions options;
  options.pool_size = PoolSize();
  options.batch_max = 64;
  options.watermark = spec.watermark;
  options.deploy_time = spec.deploy_time;
  sl::sinks::SinkContext sinks;
  sinks.csv_consumer = hooks.csv;

  ThreadedRun run;
  run.generator_tid = CurrentTid();
  int64_t t = NowNs();
  sl::dataflow::Validator validator(spec.broker);
  SL_ASSIGN_OR_RETURN(sl::dataflow::ValidationReport report,
                      validator.Validate(spec.dataflow));
  run.setup.validate_s = SecondsSince(t);
  if (!report.ok()) {
    return sl::Status::ValidationError("workload dataflow is invalid:\n" +
                                       report.Render());
  }
  t = NowNs();
  sl::exec::ThreadedRuntime runtime(spec.dataflow, spec.broker, sinks,
                                    options);
  SL_RETURN_IF_ERROR(runtime.Start());
  run.setup.deploy_s = SecondsSince(t);

  // Traced runs: a poller samples the stages and every thread's CPU.
  std::atomic<bool> polling{hooks.poll_interval_ns > 0};
  std::map<int, double> cpu_first, cpu_last;
  int poller_tid = 0;
  std::thread poller;
  if (polling) {
    poller = std::thread([&] {
      poller_tid = CurrentTid();
      cpu_first = ThreadCpuSeconds();
      while (polling.load()) {
        int64_t s = NowNs();
        auto samples = runtime.SampleStages();
        int64_t call_ns = NowNs() - s;
        if (hooks.on_stages) hooks.on_stages(samples, call_ns);
        for (const auto& [tid, cpu] : ThreadCpuSeconds()) cpu_last[tid] = cpu;
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(hooks.poll_interval_ns));
      }
    });
  }

  if (hooks.probe != nullptr) hooks.probe->Start();
  const bool paced = inputs_per_s > 0;
  run.period_ns = paced ? 1e9 / inputs_per_s : 0;
  run.origin_ns = NowNs() + (paced ? 1000000 : 0);
  run.first_submit_ns = run.origin_ns;
  sl::Status fed;
  for (size_t i = 0; i < inputs.size() && fed.ok(); ++i) {
    const FeedItem& in = inputs[i];
    const int64_t due = run.DueNs(i);
    if (paced) WaitUntil(due);
    int64_t submit = NowNs();
    if (i == 0) run.first_submit_ns = submit;
    fed = runtime.Feed(in.source, in.tuple, in.at, in.watermark);
    if (hooks.on_submit) hooks.on_submit(i, due, submit);
  }
  if (!fed.ok()) runtime.Abort();
  auto finished = runtime.Finish(spec.end_time);
  run.end_ns = NowNs();
  if (hooks.probe != nullptr) hooks.probe->Stop();
  if (poller.joinable()) {
    polling = false;
    poller.join();
    for (const auto& [tid, cpu] : cpu_last) {
      if (tid == poller_tid) continue;
      auto first = cpu_first.find(tid);
      run.thread_cpu_s[tid] =
          cpu - (first == cpu_first.end() ? 0.0 : first->second);
    }
  }
  SL_RETURN_IF_ERROR(fed);
  SL_ASSIGN_OR_RETURN(run.result, std::move(finished));
  return run;
}

}  // namespace perfbench

// The `serve-update` workload: writes beside reads on an in-process
// DdsServer on loopback with fsync=always persistence and an 8 MiB
// response cache, driven open-loop. Reads arrive at seeded Poisson times
// (a fixed count spread uniformly over the window, i.e. a Poisson process
// conditioned on its count); update batches go to the hottest read graph
// at a fixed rate, so each one invalidates cached answers, rebinds the
// engine on the next miss and queues behind solves on the entry lock.
// Requests are pipelined over at most nproc connections by one generator
// thread, matched by `id` by one receiver thread, and timed from when
// each was due — so a stall is charged to every request queued behind it.

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dds/engine.h"
#include "dds/solver.h"
#include "graph/generators.h"
#include "serve/catalog.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/wal.h"
#include "stream/dynamic_digraph.h"
#include "util/memory.h"
#include "util/random.h"
#include "util/socket.h"
#include "workloads.h"

namespace ddsgraph {
namespace perfbench {
namespace {

// One (graph, algorithm) query class of the e12 mix, hot -> cold:
// approximations at the Zipf head, certified exact solves in the tail.
// The order puts about 35% of the reads on items faster than the head
// item, so the read median falls inside the head item's uncontended
// latency cluster instead of on the edge between two clusters. uni is the
// hottest graph (46% of reads) and the writer's target.
struct MixItem {
  const char* graph;
  const char* algo;
  bool weighted;
};
constexpr MixItem kMix[] = {
    {"uni", "peel-approx", false},  {"rmat", "core-approx", false},
    {"wuni", "core-approx", true},  {"rmat", "peel-approx", false},
    {"wuni", "peel-approx", true},  {"uni", "core-approx", false},
    {"uni", "core-exact", false},   {"rmat", "core-exact", false},
    {"wuni", "core-exact", true},
};
constexpr int kMixSize = sizeof(kMix) / sizeof(kMix[0]);
constexpr double kZipfS = 1.0;
constexpr int kQueueCapacity = 256;  // open-loop bursts must not be refused
constexpr double kDrainTimeoutS = 60;
constexpr double kSpinS = 0.001;
// Offered load: reads the cache absorbs beside a steady writer
// (perfbench/spec.json, "rates", records how these were chosen).
constexpr double kReadRate = 200;   // reads per second, Poisson
constexpr double kUpdateRate = 40;  // update batches per second, periodic
constexpr int64_t kOpsPerBatch = 64;
constexpr int64_t kCacheMb = 8;
// A read counts toward goodput when it answers within this limit.
constexpr double kLatencyLimitMs = 100;
// Traced runs record spans only for the requests due in every other slice
// of the window, so the reads of the other slices measure the same
// traffic untraced.
constexpr double kTraceSliceS = 1.0;

bool InTracedSlice(double since_start) {
  return static_cast<int64_t>(since_start / kTraceSliceS) % 2 == 0;
}

// The catalog: e12's three shapes at a quarter of e12's vertex counts,
// which keeps each certified solve near 20 ms on a 4-core box (e12's
// stated intent, "core-exact in the low tens of milliseconds"), so one
// tail solve does not hold an entry lock or a core long enough to swamp a
// run's percentiles. The catalog is fixed, like e12's: on graphs this
// small a relabeling moves a certified solve's cost by up to half, so the
// seed drives the traffic and the update batches instead.
struct ServeGraphs {
  Digraph uni, rmat;
  WeightedDigraph wuni;
};

ServeGraphs MakeGraphs() {
  ServeGraphs g;
  g.uni = UniformDigraph(64, 400, 5);
  g.rmat = RmatDigraph(7, 900, 7);
  g.wuni = UniformWeightedDigraph(48, 300, 13, WeightOptions{});
  return g;
}

// The comparable prefix of a direct SolutionJson (everything before the
// schedule-dependent stats block), byte-comparable with
// SolutionSliceForCompare on the response side.
std::string DirectSlice(const DdsSolution& solution) {
  const std::string json = SolutionJson(solution);
  return json.substr(0, json.find(", \"stats\""));
}

Result<DdsSolution> DirectSolve(const Digraph* g, const WeightedDigraph* wg,
                                const std::string& algo) {
  DdsRequest request;
  request.algorithm = *ParseAlgorithmName(algo);
  if (wg != nullptr) {
    DdsEngine engine(*wg);
    return engine.Solve(request);
  }
  DdsEngine engine(*g);
  return engine.Solve(request);
}

// One scheduled request and what came back for it.
struct Req {
  double due = 0;
  std::atomic<double> send{-1};  // written by the generator thread
  double recv = -1;
  int item = -1;  // mix index; -1 = update
  int conn = 0;
  int64_t batch = -1;
  std::string response;
};

// Everything one setup builds; the last of the repeated setups is kept.
struct ServeSetup {
  ServeGraphs graphs;
  std::unique_ptr<GraphCatalog> catalog;
  std::unique_ptr<DdsServer> server;
  int port = 0;
  std::string data_dir;
  std::string expected[kMixSize];  // version-0 slices
  std::vector<double> direct_ms[kMixSize];
  double generate_s = 0;
};

std::string ItemFrame(int64_t id, const MixItem& item) {
  return "{\"id\": " + std::to_string(id) + ", \"graph\": \"" + item.graph +
         "\", \"algo\": \"" + item.algo + "\", \"weighted\": " +
         (item.weighted ? "true" : "false") + "}";
}

// A synchronous verb call on a short-lived connection.
Result<std::string> Verb(int port, const std::string& json) {
  ServeClient client;
  RETURN_IF_ERROR(client.Connect("127.0.0.1", port));
  return client.Call(json);
}

std::unique_ptr<ServeSetup> Setup(const RunConfig& config, int rep,
                                  RunOutcome* out) {
  auto s = std::make_unique<ServeSetup>();
  const double t0 = Now();
  s->graphs = MakeGraphs();
  s->generate_s = Now() - t0;
  s->catalog = std::make_unique<GraphCatalog>();
  s->data_dir = config.scratch_dir + "/wal-setup" + std::to_string(rep);
  RemoveTree(s->data_dir);
  PersistOptions persist;
  persist.data_dir = s->data_dir;
  persist.wal.fsync = FsyncPolicy::kAlways;
  const Status enabled = s->catalog->EnablePersistence(persist);
  if (!enabled.ok()) out->Fail("EnablePersistence: " + enabled.ToString());
  for (const Status& added :
       {s->catalog->AddGraph("uni", s->graphs.uni),
        s->catalog->AddGraph("rmat", s->graphs.rmat),
        s->catalog->AddWeightedGraph("wuni", s->graphs.wuni)}) {
    if (!added.ok()) out->Fail("catalog: " + added.ToString());
  }
  // Direct single-threaded solves of every mix item: the version-0
  // expectations and the uncontended compute time of each item.
  for (int i = 0; i < kMixSize; ++i) {
    const MixItem& item = kMix[i];
    const std::string graph = item.graph;
    const double d0 = Now();
    const Result<DdsSolution> solved = DirectSolve(
        graph == "uni" ? &s->graphs.uni : &s->graphs.rmat,
        graph == "wuni" ? &s->graphs.wuni : nullptr, item.algo);
    s->direct_ms[i].push_back((Now() - d0) * 1e3);
    if (!solved.ok()) {
      out->Fail("direct solve: " + solved.status().ToString());
      continue;
    }
    s->expected[i] = DirectSlice(solved.value());
  }
  ServerOptions options;
  options.port = 0;
  options.scheduler.workers = config.threads;
  options.scheduler.queue_capacity = kQueueCapacity;
  options.scheduler.cache_bytes = static_cast<size_t>(kCacheMb) << 20;
  s->server = std::make_unique<DdsServer>(s->catalog.get(), options);
  const Result<int> started = s->server->Start();
  if (!started.ok()) {
    out->Fail("server start: " + started.status().ToString());
    return s;
  }
  s->port = started.value();
  // Warm-up: every mix item once, so engines and the cache start primed.
  ServeClient warm;
  if (!warm.Connect("127.0.0.1", s->port).ok()) {
    out->Fail("warm-up connect failed");
    return s;
  }
  for (int i = 0; i < kMixSize; ++i) {
    const Result<std::string> r = warm.Call(ItemFrame(i, kMix[i]));
    if (!r.ok() || FindJsonString(r.value(), "status").value_or("") != "ok") {
      out->Fail("warm-up request failed");
    }
  }
  return s;
}

// Frames arriving on several sockets, decoded by one thread.
class Receiver {
 public:
  Receiver(std::vector<int> fds, std::vector<Req>* reqs, double start,
           Tracer* tracer)
      : fds_(std::move(fds)), bufs_(fds_.size()), reqs_(reqs), start_(start),
        tracer_(tracer) {}

  void Run(int64_t expected) {
    std::vector<pollfd> pfds;
    for (const int fd : fds_) pfds.push_back(pollfd{fd, POLLIN, 0});
    char chunk[1 << 16];
    while (received_.load(std::memory_order_relaxed) < expected &&
           !stop_.load(std::memory_order_relaxed)) {
      if (poll(pfds.data(), pfds.size(), 20) <= 0) continue;
      for (size_t c = 0; c < pfds.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = recv(pfds[c].fd, chunk, sizeof(chunk), 0);
        if (n <= 0) {
          pfds[c].fd = -1;  // closed: poll ignores negative fds
          continue;
        }
        bufs_[c].append(chunk, static_cast<size_t>(n));
        Drain(&bufs_[c], Now());
      }
    }
  }

  void Stop() { stop_.store(true, std::memory_order_relaxed); }
  int64_t received() const { return received_.load(); }

 private:
  // Decodes every complete "<len>\n<payload>\n" frame in `buf`.
  void Drain(std::string* buf, double now) {
    size_t pos = 0;
    for (;;) {
      const size_t nl = buf->find('\n', pos);
      if (nl == std::string::npos) break;
      const size_t len = std::strtoull(buf->c_str() + pos, nullptr, 10);
      if (buf->size() < nl + 1 + len + 1) break;
      Deliver(buf->substr(nl + 1, len), now);
      pos = nl + 1 + len + 1;
    }
    buf->erase(0, pos);
  }

  void Deliver(std::string payload, double now) {
    // A frame without a known id leaves its request unanswered, and an
    // unanswered request counts as failed.
    const std::optional<double> id = FindJsonNumber(payload, "id");
    if (!id.has_value() || *id < 0 ||
        *id >= static_cast<double>(reqs_->size())) {
      return;
    }
    Req& r = (*reqs_)[static_cast<size_t>(*id)];
    r.recv = now;
    // Traced runs record spans as responses land, for requests due in a
    // traced slice only; the tracing cost delays the responses read next,
    // which are mostly due in the same slice.
    if (tracer_->on() && InTracedSlice(r.due - start_)) {
      const int64_t rid = static_cast<int64_t>(*id);
      const double queue = FindJsonNumber(payload, "queue_ms").value_or(0);
      const double solve = FindJsonNumber(payload, "solve_ms").value_or(0);
      const double send = r.send.load(std::memory_order_acquire);
      const int64_t root = tracer_->Add(
          r.item >= 0 ? "serve.read" : "serve.update", r.due, now, -1, rid);
      tracer_->Add("client.gen_lateness", r.due, send, root, rid);
      const int64_t flight =
          tracer_->Add("client.in_flight", send, now, root, rid);
      // The server reports durations only; they are placed from the send.
      tracer_->Add("server.queue", send, send + queue / 1e3, flight, rid);
      tracer_->Add("server.solve", send + queue / 1e3,
                   send + (queue + solve) / 1e3, flight, rid);
    }
    r.response = std::move(payload);
    received_.fetch_add(1, std::memory_order_release);
  }

  std::vector<int> fds_;
  std::vector<std::string> bufs_;
  std::vector<Req>* reqs_;
  const double start_;
  Tracer* tracer_;
  std::atomic<int64_t> received_{0};
  std::atomic<bool> stop_{false};
};

std::map<std::string, double> ServerStats(int port) {
  std::map<std::string, double> stats;
  const Result<std::string> r = Verb(port, "{\"op\": \"server_stats\"}");
  if (!r.ok()) return stats;
  for (const char* key :
       {"accepted", "served", "rejected", "coalesced", "batches",
        "cache_hits", "cache_misses", "cache_evictions",
        "cache_invalidations"}) {
    stats[key] = FindJsonNumber(r.value(), key).value_or(0);
  }
  return stats;
}

bool TopLevelTrue(const std::string& json, const std::string& key) {
  // The markers precede the embedded solution object.
  const size_t solution = json.find("\"solution\"");
  const size_t at = json.find("\"" + key + "\": true");
  return at != std::string::npos && at < solution;
}

}  // namespace

RunOutcome RunServeWorkload(const RunConfig& config, Tracer* tracer) {
  RunOutcome out;
  MakeDirs(config.scratch_dir);

  // ---- setup, repeated; the last one is kept ----------------------------
  std::vector<double> setup_s, generate_s;
  std::vector<double> direct_ms[kMixSize];
  std::unique_ptr<ServeSetup> s;
  for (int r = 0; r < kSetupReps; ++r) {
    if (s != nullptr) {
      s->server->Stop();
      RemoveTree(s->data_dir);
      s.reset();
    }
    const double t0 = Now();
    s = Setup(config, r, &out);
    setup_s.push_back(Now() - t0);
    generate_s.push_back(s->generate_s);
    for (int i = 0; i < kMixSize; ++i) {
      direct_ms[i].insert(direct_ms[i].end(), s->direct_ms[i].begin(),
                          s->direct_ms[i].end());
    }
    tracer->Add("setup", t0, t0 + setup_s.back(), -1, r);
  }
  if (!out.correct) return out;
  const int port = s->port;
  const std::string target = "uni";
  const Digraph& target_graph = s->graphs.uni;
  CatalogEntry* target_entry = s->catalog->Find(target);

  // ---- the schedule -------------------------------------------------------
  const int read_conns = std::max(1, config.threads - 1);
  const int64_t n_reads =
      std::max<int64_t>(1, std::llround(kReadRate * config.seconds));
  const int64_t n_updates = std::llround(kUpdateRate * config.seconds);
  std::vector<std::vector<Edge>> versions;
  const std::vector<EdgeBatch> batches = MakeUpdateBatches(
      target_graph, n_updates, kOpsPerBatch, config.seed * 7 + 5,
      &versions);
  std::vector<Req> reqs(static_cast<size_t>(n_reads + n_updates));
  {
    Rng rng(config.seed * 7 + 1);
    std::vector<double> read_due(static_cast<size_t>(n_reads));
    for (double& t : read_due) t = rng.NextDouble() * config.seconds;
    std::sort(read_due.begin(), read_due.end());
    // The writer runs at a fixed rate with a seeded phase. With Poisson
    // batches the ack median sat on the edge between acks that arrive at
    // once and acks that reach the client only with its next request, and
    // did not repeat from run to run.
    std::vector<double> update_due(static_cast<size_t>(n_updates));
    const double phase = rng.NextDouble();
    for (size_t j = 0; j < update_due.size(); ++j) {
      update_due[j] = (static_cast<double>(j) + phase) / kUpdateRate;
    }
    // Stratified Zipf: each item gets its expected share of the reads
    // exactly, in seeded random order, so the mix proportions do not vary
    // from seed to seed.
    std::vector<int> items;
    double norm = 0;
    for (int k = 0; k < kMixSize; ++k) norm += std::pow(k + 1.0, -kZipfS);
    double cumulative = 0;
    for (int k = 0; k < kMixSize; ++k) {
      cumulative += std::pow(k + 1.0, -kZipfS) / norm;
      const int64_t upto = std::llround(cumulative * n_reads);
      while (static_cast<int64_t>(items.size()) < upto) items.push_back(k);
    }
    for (size_t k = items.size(); k > 1; --k) {
      std::swap(items[k - 1], items[rng.NextBounded(k)]);
    }
    for (int64_t i = 0; i < n_reads; ++i) {
      Req& r = reqs[static_cast<size_t>(i)];
      r.due = read_due[static_cast<size_t>(i)];
      r.item = items[static_cast<size_t>(i)];
      r.conn = static_cast<int>(i % read_conns);
    }
    for (int64_t j = 0; j < n_updates; ++j) {
      Req& r = reqs[static_cast<size_t>(n_reads + j)];
      r.due = update_due[static_cast<size_t>(j)];
      r.conn = read_conns;
      r.batch = j;
    }
  }
  std::vector<int64_t> order(reqs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int64_t>(i);
  std::sort(order.begin(), order.end(), [&reqs](int64_t a, int64_t b) {
    return reqs[static_cast<size_t>(a)].due < reqs[static_cast<size_t>(b)].due;
  });
  std::vector<std::string> frames(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    frames[i] =
        reqs[i].item >= 0
            ? ItemFrame(static_cast<int64_t>(i), kMix[reqs[i].item])
            : "{\"id\": " + std::to_string(i) +
                  ", \"op\": \"update\", \"graph\": \"" + target +
                  "\", \"edges\": \"" +
                  FormatEdgeOps(batches[static_cast<size_t>(reqs[i].batch)]) +
                  "\"}";
  }

  // ---- the measured window -------------------------------------------------
  const std::map<std::string, double> stats0 = ServerStats(port);
  const int64_t rebuilds0 = target_entry->engine_rebuilds();
  std::vector<UniqueSocket> conns;
  std::vector<int> fds;
  for (int c = 0; c <= read_conns; ++c) {
    Result<UniqueSocket> sock = TcpConnect("127.0.0.1", port, 5);
    if (!sock.ok()) {
      out.Fail("connect: " + sock.status().ToString());
      return out;
    }
    conns.push_back(std::move(sock).value());
    fds.push_back(conns.back().fd());
  }
  // Due times become absolute before the receiver starts reading them.
  const double start = Now() + 0.01;
  for (Req& r : reqs) r.due += start;
  Receiver receiver(fds, &reqs, start, tracer);
  std::thread receiver_thread(&Receiver::Run, &receiver,
                              static_cast<int64_t>(reqs.size()));
  for (const int64_t i : order) {
    Req& r = reqs[static_cast<size_t>(i)];
    // Sleep to just short of the due time, then spin, so that a send is
    // not late by the scheduler's wake-up latency.
    const double wait = r.due - Now() - kSpinS;
    if (wait > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(wait));
    }
    while (Now() < r.due) {
    }
    r.send.store(Now(), std::memory_order_release);
    const Status sent = WriteFrame(fds[static_cast<size_t>(r.conn)],
                                   frames[static_cast<size_t>(i)]);
    if (!sent.ok()) out.Fail("send: " + sent.ToString());
  }
  const double drain_deadline = Now() + kDrainTimeoutS;
  while (receiver.received() < static_cast<int64_t>(reqs.size()) &&
         Now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  receiver.Stop();
  receiver_thread.join();
  conns.clear();
  const std::map<std::string, double> stats1 = ServerStats(port);
  const Result<std::string> listed = Verb(port, "{\"op\": \"list_graphs\"}");
  const int64_t rebuilds = target_entry->engine_rebuilds() - rebuilds0;
  const int64_t wal_records = target_entry->wal_records();
  const int64_t checkpoints = target_entry->checkpoints();
  const int64_t sync_errors = target_entry->wal_sync_errors();
  s->server->Stop();
  RemoveTree(s->data_dir);
  double last_read_recv = start;
  for (const Req& r : reqs) {
    if (r.item >= 0) last_read_recv = std::max(last_read_recv, r.recv);
  }
  const double window_s = last_read_recv - start;

  // ---- correctness and per-request measurements, outside the window -----
  std::map<std::pair<int, int64_t>, std::string> expected;  // (item, version)
  for (int i = 0; i < kMixSize; ++i) expected[{i, 0}] = s->expected[i];
  // Acks in arrival order: versions must rise by one per acked batch.
  std::vector<std::pair<double, int64_t>> acks;  // (recv time, version)
  std::vector<double> update_ms;
  int64_t last_version = 0;
  for (int64_t j = 0; j < n_updates; ++j) {
    const Req& r = reqs[static_cast<size_t>(n_reads + j)];
    ++out.attempted;
    if (r.recv < 0 ||
        FindJsonString(r.response, "status").value_or("") != "ok") {
      ++out.failed;
      continue;
    }
    const int64_t version = static_cast<int64_t>(
        FindJsonNumber(r.response, "version").value_or(-1));
    if (version != last_version + 1 ||
        FindJsonNumber(r.response, "applied").value_or(-1) !=
            static_cast<double>(kOpsPerBatch)) {
      out.Fail("update ack " + std::to_string(j) + " carries version " +
               std::to_string(version) + " after " +
               std::to_string(last_version));
      continue;
    }
    last_version = version;
    acks.emplace_back(r.recv, version);
    update_ms.push_back((r.recv - r.due) * 1e3);
  }
  const std::string listed_entry = "\"name\": \"" + target +
                                   "\", \"weighted\": false, \"version\": " +
                                   std::to_string(last_version) + ",";
  if (!listed.ok() ||
      listed.value().find(listed_entry) == std::string::npos) {
    out.Fail("list_graphs disagrees with the acked version " +
             std::to_string(last_version) + " of " + target);
  }

  std::vector<double> read_ms, lateness_ms, queue_ms, wire_ms, hit_ms, miss_ms;
  std::vector<double> item_ms[kMixSize], item_queue_ms[kMixSize],
      item_solve_ms[kMixSize];
  std::vector<double> traced_ms, untraced_ms;
  double solve_sum = 0, direct_sum = 0;
  int64_t good = 0, unaccounted = 0;
  for (int64_t i = 0; i < n_reads; ++i) {
    const Req& r = reqs[static_cast<size_t>(i)];
    ++out.attempted;
    const double send = r.send.load(std::memory_order_acquire);
    lateness_ms.push_back((send - r.due) * 1e3);
    if (r.recv < 0 ||
        FindJsonString(r.response, "status").value_or("") != "ok") {
      ++out.failed;
      continue;
    }
    const int64_t version = static_cast<int64_t>(
        FindJsonNumber(r.response, "version").value_or(-1));
    const std::string graph = kMix[r.item].graph;
    // No stale answer after an ack: a read sent after the ack of version
    // v on the target graph must report a version >= v.
    if (graph == target && !acks.empty()) {
      const auto acked = std::upper_bound(
          acks.begin(), acks.end(), std::make_pair(send, INT64_MAX));
      if (acked != acks.begin() && version < std::prev(acked)->second) {
        out.Fail("stale read of version " + std::to_string(version) +
                 " after the ack of " +
                 std::to_string(std::prev(acked)->second));
        continue;
      }
    }
    const auto key = std::make_pair(r.item, version);
    if (expected.count(key) == 0) {
      if (graph != target || version < 1 ||
          version > static_cast<int64_t>(versions.size())) {
        out.Fail("read of " + graph + " names unknown version " +
                 std::to_string(version));
        continue;
      }
      const Digraph snapshot = Digraph::FromEdges(
          target_graph.NumVertices(),
          versions[static_cast<size_t>(version - 1)]);
      const Result<DdsSolution> solved =
          DirectSolve(&snapshot, nullptr, kMix[r.item].algo);
      expected[key] = solved.ok() ? DirectSlice(solved.value()) : "";
    }
    const Result<std::string> slice = SolutionSliceForCompare(r.response);
    if (!slice.ok() || slice.value() != expected[key]) {
      out.Fail("DIVERGENCE on " + graph + "/" + kMix[r.item].algo +
               " version " + std::to_string(version) +
               ": served solution differs from the direct solve");
      continue;
    }
    const double latency = (r.recv - r.due) * 1e3;
    const double queue = FindJsonNumber(r.response, "queue_ms").value_or(0);
    const double solve = FindJsonNumber(r.response, "solve_ms").value_or(0);
    const double wire = (r.recv - send) * 1e3 - queue - solve;
    if (wire < -0.05) ++unaccounted;  // server phases outlast the round trip
    read_ms.push_back(latency);
    item_ms[r.item].push_back(latency / 1e3);
    item_queue_ms[r.item].push_back(queue);
    item_solve_ms[r.item].push_back(solve);
    wire_ms.push_back(wire);
    (InTracedSlice(r.due - start) ? traced_ms : untraced_ms)
        .push_back(latency);
    if (latency <= kLatencyLimitMs) ++good;
    if (TopLevelTrue(r.response, "cache_hit")) {
      hit_ms.push_back(latency);
    } else {
      queue_ms.push_back(queue);
      if (!TopLevelTrue(r.response, "coalesced")) {
        miss_ms.push_back(latency);
        solve_sum += solve;
        direct_sum += Median(direct_ms[r.item]);
      }
    }
  }

  // ---- end-to-end metrics -------------------------------------------------
  const auto item_index = [](const char* graph, const char* algo) {
    for (int i = 0; i < kMixSize; ++i) {
      if (std::string(kMix[i].graph) == graph &&
          std::string(kMix[i].algo) == algo) {
        return i;
      }
    }
    return 0;
  };
  MetricSet& e = out.e2e;
  e.Set("setup_s", Median(setup_s));
  e.Set("peak_rss_mb", static_cast<double>(PeakRssKib()) / 1024.0);
  // The solve kinds of the solve workload, here as the uncontended direct
  // solve of the mix item (one per setup): almost every rmat read is a
  // cache hit, so the reads themselves say little about solve cost.
  const auto direct_s = [&](const char* graph, const char* algo) {
    return Median(direct_ms[item_index(graph, algo)]) / 1e3;
  };
  e.Set("exact_rmat_s", direct_s("rmat", "core-exact"));
  e.Set("approx_rmat_s", direct_s("rmat", "core-approx"));
  e.Set("peel_rmat_s", direct_s("rmat", "peel-approx"));
  e.Set("exact_uni_s", direct_s("uni", "core-exact"));
  e.Set("read_p50_ms", Median(read_ms));
  e.Set("read_p99_ms", Tail(read_ms));
  e.Set("read_goodput_qps",
        window_s > 0 ? static_cast<double>(good) / window_s : 0);
  e.Set("update_p50_ms", Median(update_ms));
  e.Set("update_p99_ms", Tail(update_ms));

  std::printf("%s: %lld reads at %.1f/s over %d connections, %lld updates "
              "at %.1f/s to '%s', workers=%d, cache=%lld MiB, persist=%s\n",
              "serve-update", static_cast<long long>(n_reads), kReadRate,
              read_conns, static_cast<long long>(n_updates), kUpdateRate,
              target.c_str(), config.threads,
              static_cast<long long>(kCacheMb), "fsync");
  PrintLatency("read", read_ms);
  PrintLatency("update ack", update_ms);
  PrintLatency("generator lateness", lateness_ms);
  std::printf("  per item (uncontended direct solve ms), server split:\n");
  for (int i = 0; i < kMixSize; ++i) {
    std::vector<double> ms;
    for (const double sec : item_ms[i]) ms.push_back(sec * 1e3);
    char label[64];
    std::snprintf(label, sizeof(label), "%s/%s (%.1f)", kMix[i].graph,
                  kMix[i].algo, Median(direct_ms[i]));
    PrintLatency(label, ms);
    std::printf("  %-28s queue p50 %8.3f ms  solve p50 %8.3f ms\n", "",
                Median(item_queue_ms[i]), Median(item_solve_ms[i]));
  }

  MetricSet& m = out.layers;
  m.Set("graph.generate_s", Median(generate_s));
  if (!config.trace) return out;

  // ---- per-layer metrics (traced run only) --------------------------------
  const auto delta = [&](const char* key) {
    return stats1.count(key) && stats0.count(key)
               ? stats1.at(key) - stats0.at(key)
               : 0.0;
  };
  m.Set("serve.scheduler.queue_p50_ms", Median(queue_ms));
  m.Set("serve.scheduler.queue_p99_ms", Tail(queue_ms));
  const double n_solved = static_cast<double>(miss_ms.size());
  m.Set("serve.catalog.solve_ms", n_solved > 0 ? solve_sum / n_solved : 0);
  m.Set("serve.catalog.direct_solve_ms",
        n_solved > 0 ? direct_sum / n_solved : 0);
  m.Set("serve.catalog.lock_inflation",
        direct_sum > 0 ? solve_sum / direct_sum : 0);
  m.Set("serve.wire_ms", Median(wire_ms));
  m.Set("serve.accepted", delta("accepted"));
  m.Set("serve.served", delta("served"));
  m.Set("serve.rejected", delta("rejected"));
  m.Set("serve.coalesced", delta("coalesced"));
  m.Set("serve.batches", delta("batches"));
  m.Set("serve.gen_lateness_p99_ms", Tail(lateness_ms));
  const double hits = delta("cache_hits");
  const double misses = delta("cache_misses");
  m.Set("cache.hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0);
  m.Set("cache.hits", hits);
  m.Set("cache.misses", misses);
  m.Set("cache.invalidations", delta("cache_invalidations"));
  m.Set("cache.evictions", delta("cache_evictions"));
  m.Set("cache.hit_p50_ms", Median(hit_ms));
  m.Set("cache.miss_p50_ms", Median(miss_ms));
  m.Set("wal.records", static_cast<double>(wal_records));
  m.Set("wal.checkpoints", static_cast<double>(checkpoints));
  m.Set("wal.sync_errors", static_cast<double>(sync_errors));
  m.Set("stream.engine_rebuilds", static_cast<double>(rebuilds));
  // Reads due in traced slices against those due in untraced ones.
  m.Set("bench.trace_overhead",
        Median(untraced_ms) > 0
            ? (Median(traced_ms) - Median(untraced_ms)) / Median(untraced_ms)
            : 0);
  m.Set("bench.phase_sum_err",
        read_ms.empty() ? 0
                        : static_cast<double>(unaccounted) /
                              static_cast<double>(read_ms.size()));

  // Side measurements of the update path, replaying the same batches:
  // WAL append + fsync on a private log, the overlay apply on an
  // uncontended non-persistent catalog, and the compaction a solve pays
  // after each batch.
  std::vector<double> append_ms, apply_ms, compact_ms;
  {
    const std::string wal_path = config.scratch_dir + "/side.wal";
    RemoveTree(wal_path);
    WalOptions wal_options;
    wal_options.fsync = FsyncPolicy::kAlways;
    WalReplay replay;
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::Open(wal_path, wal_options, &replay);
    if (wal.ok()) {
      for (size_t b = 0; b < batches.size(); ++b) {
        const double t0 = Now();
        const Status appended =
            wal.value()->Append(static_cast<int64_t>(b) + 1, batches[b]);
        const Status synced = wal.value()->Sync();
        const double t1 = Now();
        tracer->Add("wal.append_sync", t0, t1, -1, static_cast<int64_t>(b));
        if (!appended.ok() || !synced.ok()) out.Fail("side WAL append failed");
        append_ms.push_back((t1 - t0) * 1e3);
      }
    } else {
      out.Fail("side WAL open: " + wal.status().ToString());
    }
    RemoveTree(wal_path);
  }
  {
    GraphCatalog replay_catalog;
    if (replay_catalog.AddGraph(target, target_graph).ok()) {
      CatalogEntry* entry = replay_catalog.Find(target);
      for (const EdgeBatch& batch : batches) {
        const double t0 = Now();
        const bool ok = entry->ApplyEdgeBatch(batch).ok();
        apply_ms.push_back((Now() - t0) * 1e3);
        tracer->Add("stream.apply", t0, Now(), -1, -1);
        if (!ok) out.Fail("replay ApplyEdgeBatch failed");
      }
    }
    DynamicDigraph dyn{Digraph(target_graph)};
    for (const EdgeBatch& batch : batches) {
      dyn.ApplyBatch(batch);
      const double t0 = Now();
      dyn.Snapshot();
      compact_ms.push_back((Now() - t0) * 1e3);
      tracer->Add("stream.compact", t0, t0 + compact_ms.back() / 1e3, -1,
                  -1);
    }
  }
  m.Set("wal.append_p50_ms", Median(append_ms));
  m.Set("wal.append_p99_ms", Tail(append_ms));
  m.Set("stream.apply_ms", Median(apply_ms));
  m.Set("stream.update_wait_ms",
        update_ms.empty() ? 0
                          : Median(update_ms) - Median(apply_ms) -
                                Median(append_ms));
  m.Set("stream.compact_ms", Median(compact_ms));
  return out;
}

}  // namespace perfbench
}  // namespace ddsgraph

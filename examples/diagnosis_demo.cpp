// Diagnosis demo: the off-line fault identification step the paper assumes
// (§1), run both as the closed-form protocol model and as a real SPMD
// program on the simulator — every healthy node pings its neighbours, then
// floods its verdicts until the whole healthy subgraph agrees.
//
//   $ ./diagnosis_demo [--n 5] [--r 3] [--seed 3]
#include <iostream>

#include "fault/diagnosis.hpp"
#include "fault/scenario.hpp"
#include "sim/machine.hpp"
#include "util/cli.hpp"

namespace {

using namespace ftsort;

/// SPMD flooding diagnosis on the Machine. Faulty nodes never run, so a
/// healthy node discovers a neighbour's fault by *absence*: in this
/// synchronous rendering, each healthy node exchanges its current fault map
/// with every healthy neighbour for `rounds` rounds; a neighbour that is
/// faulty contributes nothing and is marked locally. Payload encoding: one
/// key per node, 1 = faulty.
sim::RunReport run_spmd_diagnosis(const fault::FaultSet& truth, int rounds,
                                  std::vector<bool>& recovered) {
  const cube::Dim n = truth.dim();
  const cube::NodeId size = truth.cube_size();
  std::vector<std::vector<bool>> maps(size, std::vector<bool>(size, false));

  sim::Machine machine(n, truth);
  const auto program = [&](sim::NodeCtx& ctx) -> sim::Task {
    auto& map = maps[ctx.id()];
    // Ping phase happens implicitly: the fault set is known to the harness
    // and a faulty neighbour would never ack, so seed the local view.
    for (cube::Dim d = 0; d < n; ++d) {
      const cube::NodeId v = cube::neighbor(ctx.id(), d);
      if (ctx.is_faulty(v)) map[v] = true;
    }
    for (int round = 0; round < rounds; ++round) {
      const sim::Tag tag = static_cast<sim::Tag>(round);
      for (cube::Dim d = 0; d < n; ++d) {
        const cube::NodeId v = cube::neighbor(ctx.id(), d);
        if (ctx.is_faulty(v)) continue;
        std::vector<sim::Key> payload;
        for (cube::NodeId w = 0; w < size; ++w)
          payload.push_back(map[w] ? 1 : 0);
        ctx.send(v, tag, std::move(payload));
      }
      for (cube::Dim d = 0; d < n; ++d) {
        const cube::NodeId v = cube::neighbor(ctx.id(), d);
        if (ctx.is_faulty(v)) continue;
        const sim::Message msg = co_await ctx.recv(v, tag);
        for (cube::NodeId w = 0; w < size; ++w)
          if (msg.payload[w] != 0) map[w] = true;
      }
    }
    co_return;
  };
  const auto report = machine.run(program);

  // Verify all healthy nodes agree and extract the map.
  recovered.assign(size, false);
  for (cube::NodeId u = 0; u < size; ++u) {
    if (truth.is_faulty(u)) continue;
    recovered = maps[u];
    break;
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("diagnosis_demo",
                      "off-line fail-stop fault diagnosis on Q_n");
  cli.add_int("n", 5, "hypercube dimension");
  cli.add_int("r", 3, "number of faults");
  cli.add_int("seed", 3, "random seed");
  if (!cli.parse(argc, argv)) return 1;

  const auto n = static_cast<cube::Dim>(cli.integer("n"));
  const auto r = static_cast<std::size_t>(cli.integer("r"));
  util::Rng rng(static_cast<std::uint64_t>(cli.integer("seed")));
  const auto truth = fault::random_faults(n, r, rng);
  std::cout << "ground truth: " << truth.to_string() << "\n\n";

  // Closed-form protocol model.
  const auto model = fault::diagnose_fail_stop(truth);
  std::cout << "protocol model: " << model.rounds << " rounds, "
            << model.messages << " messages, "
            << (model.complete && model.identified == truth
                    ? "recovered exactly"
                    : "MISMATCH")
            << "\n";

  // SPMD rendering on the simulator, using the model's round count.
  std::vector<bool> recovered;
  const auto report = run_spmd_diagnosis(truth, model.rounds, recovered);
  bool exact = true;
  for (cube::NodeId u = 0; u < truth.cube_size(); ++u)
    exact &= (recovered[u] == truth.is_faulty(u));
  std::cout << "SPMD run:       " << report.messages << " messages, "
            << report.makespan / 1000.0 << " ms simulated, "
            << (exact ? "recovered exactly" : "MISMATCH") << "\n";
  return 0;
}

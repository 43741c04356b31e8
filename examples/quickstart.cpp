// Quickstart: stand up a 4-server Hashchain Setchain on the simulated
// CometBFT ledger, add a handful of elements, wait for commits, and verify
// one element the way the paper's client does — a quorum read reconciled
// from f+1 matching servers plus an f+1 epoch-proof commit check gathered
// across the cluster.
//
//   $ ./quickstart
#include <cstdio>

#include "api/scenario_builder.hpp"
#include "core/invariants.hpp"
#include "runner/experiment.hpp"

int main() {
  using namespace setchain;

  // 1. Describe the deployment: 4 servers (tolerating f=1 Byzantine), full
  //    fidelity (real Ed25519 + SHA-512 + szx compression), clients adding
  //    120 elements/second for three simulated seconds. build() validates
  //    the parameters (f within the Byzantine bound, positive rates, ...).
  const runner::Scenario scenario = api::ScenarioBuilder()
                                        .algorithm(runner::Algorithm::kHashchain)
                                        .servers(4)
                                        .faults(1)
                                        .rate(120)
                                        .add_seconds(3)
                                        .horizon_seconds(60)
                                        .collector(20)
                                        .full_fidelity()
                                        .track_ids()
                                        .build();

  // 2. Build and run. The Experiment wires servers, clients, the PKI and the
  //    consensus simulation together exactly like the paper's docker nodes.
  runner::Experiment experiment(scenario);
  experiment.run();

  const auto result = experiment.result();
  std::printf("added      : %llu elements\n",
              static_cast<unsigned long long>(result.elements_added));
  std::printf("committed  : %llu elements (f+1 epoch-proofs on the ledger)\n",
              static_cast<unsigned long long>(result.elements_committed));
  std::printf("epochs     : %llu\n", static_cast<unsigned long long>(result.epochs));
  std::printf("blocks     : %llu\n", static_cast<unsigned long long>(result.blocks));
  std::printf("sim time   : %.1f s (wall %.0f ms)\n", result.sim_seconds,
              result.wall_ms);

  // 3. Client verification (§2 of the paper): a quorum client reads all
  //    servers, adopts only epochs that f+1 of them agree on, and commits
  //    an element once f+1 distinct servers signed its epoch — no single
  //    server is trusted anywhere in this path.
  api::QuorumClient client = experiment.make_client();
  const core::ElementId some_element = experiment.accepted_valid_ids().front();
  const auto view = client.get();
  const auto verdict = client.verify(some_element);
  std::printf("\nquorum-client check of element %llu across all 4 servers:\n",
              static_cast<unsigned long long>(some_element));
  std::printf("  epochs agreed by f+1    : %llu\n",
              static_cast<unsigned long long>(view.epoch));
  std::printf("  in the consolidated set : %s\n",
              view.contains(some_element) ? "yes" : "no");
  std::printf("  in epoch                : %llu\n",
              static_cast<unsigned long long>(verdict.epoch));
  std::printf("  valid proofs            : %zu from %zu servers (need f+1 = %u)\n",
              verdict.valid_proofs, verdict.proof_sources, client.quorum());
  std::printf("  committed               : %s\n", verdict.committed ? "yes" : "no");

  // 4. The Setchain properties (1-8) hold at quiescence.
  const auto servers = experiment.correct_servers();
  const auto safety = core::check_safety(servers);
  const auto liveness = core::check_liveness_quiescent(
      servers, experiment.accepted_valid_ids(), experiment.params(), experiment.pki());
  std::printf("\ninvariants: safety %s, liveness %s\n",
              safety.ok() ? "OK" : "VIOLATED", liveness.ok() ? "OK" : "VIOLATED");
  return safety.ok() && liveness.ok() && verdict.committed ? 0 : 1;
}

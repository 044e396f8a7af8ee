// lfo_lint fixture: exactly ONE hotpath violation (a process-wide metric
// write in a tagged function). Never compiled — scanned by
// tests/test_lfo_lint.py.
#define LFO_HOT_PATH
#define LFO_COUNTER_INC(name)

namespace fixture {

struct Shard {
  unsigned long hits = 0;
};

LFO_HOT_PATH void on_hit(Shard& shard) {
  ++shard.hits;  // shard-local count: the one source of truth
  LFO_COUNTER_INC("lfo_fixture_hits_total");  // seeded violation: hotpath
}

// Untagged sibling: admission-path metric writes must NOT fire the rule.
void on_admit(Shard& shard) {
  (void)shard;
  LFO_COUNTER_INC("lfo_fixture_admitted_total");
}

}  // namespace fixture

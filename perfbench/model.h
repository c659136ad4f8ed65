// An independent reference model of LabFlow-1 semantics, fed the same
// generated events as the program, and the canonical form in which both the
// model's and the program's query answers are compared.
//
// The model knows nothing of storage, object ids or LabBase's records. Per
// material name it keeps the workflow state and, per attribute, every value
// ordered by valid time (late entries included); per state a work queue
// ordered by material name; per set its member count.
#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/value.h"
#include "labflow/events.h"
#include "labflow/params.h"

namespace perfbench {

/// The work-queue query inspects this many names at the head of the queue.
inline constexpr size_t kWorkQueueHead = 20;

// ---- Canonical answers -------------------------------------------------------
// One string per query answer; the program's answer and the model's must be
// byte-equal.

std::string AnswerMostRecent(const labflow::Value* value);  // nullptr: absent
std::string AnswerHistory(const std::vector<int64_t>& times);
std::string AnswerWorkQueue(int64_t size, const std::vector<std::string>& head);
std::string AnswerCount(int64_t count);
std::string AnswerSetSize(int64_t size);
std::string AnswerMaterial(size_t attrs_present, const std::string& name);
std::string AnswerMissing(const char* what);  // unknown state or set

class ReferenceModel {
 public:
  struct Attr {
    /// (valid time, value), ascending by time; equal times keep entry order.
    std::vector<std::pair<int64_t, labflow::Value>> history;
    int64_t most_recent_time = 0;
    labflow::Value most_recent;
  };
  struct Material {
    std::string state;
    int64_t state_time = 0;
    std::map<std::string, Attr> attrs;
  };

  explicit ReferenceModel(const std::vector<std::string>& states);

  /// Applies one update event. False (with `error`) for an event the
  /// program would have to reject: a duplicate name, an unknown material.
  bool Apply(const labflow::bench::Event& ev, std::string* error);

  /// The expected answer to a query event in the current state. False for a
  /// query the program would have to reject (an unknown material).
  bool Answer(const labflow::bench::Event& ev, std::string* answer,
              std::string* error) const;

  const Material* FindMaterial(const std::string& name) const;
  bool IsState(const std::string& state) const {
    return queues_.count(state) != 0;
  }
  const std::map<std::string, std::set<std::string>>& queues() const {
    return queues_;
  }
  const std::map<std::string, int64_t>& sets() const { return sets_; }
  /// Material names in creation order (for seeded sampling).
  const std::vector<std::string>& material_names() const { return names_; }

 private:
  std::unordered_map<std::string, Material> materials_;
  std::vector<std::string> names_;
  std::map<std::string, std::set<std::string>> queues_;
  std::map<std::string, int64_t> sets_;
};

/// Event type names as the metrics use them ("create_material", ...).
const char* EventTypeName(labflow::bench::Event::Type type);
inline constexpr int kEventTypes = 11;

/// The number of each event type in a stream.
struct Composition {
  int64_t by_type[kEventTypes] = {};
  int64_t events = 0;
  int64_t updates = 0;
  int64_t queries = 0;
};

/// One generated LabFlow-1 stream held in memory, with the model's expected
/// answer to every query event and the model's state after the last event.
struct Stream {
  labflow::bench::WorkloadParams params;
  std::vector<std::string> states;
  std::vector<labflow::bench::Event> events;
  /// expected[i] is the answer to events[i]; empty for update events.
  std::vector<std::string> expected;
  Composition composition;
  /// Bytes of user data the updates carry: names, attribute names and
  /// values as text. The base of env.write_amp.
  uint64_t user_bytes = 0;
  ReferenceModel model{{}};
};

/// Generates the stream for `params` and runs the model over it. False (with
/// `error`) if the model rejects an event.
bool BuildStream(const labflow::bench::WorkloadParams& params, Stream* stream,
                 std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_

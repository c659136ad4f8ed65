#include "model.h"

#include <algorithm>

#include "labflow/generator.h"

namespace perfbench {

using labflow::Value;
using labflow::bench::Event;

// ---- Canonical answers -------------------------------------------------------

std::string AnswerMostRecent(const Value* value) {
  return value == nullptr ? "absent" : "value=" + value->ToString();
}

std::string AnswerHistory(const std::vector<int64_t>& times) {
  std::string out = "n=" + std::to_string(times.size()) + ":";
  for (int64_t t : times) out += std::to_string(t) + ",";
  return out;
}

std::string AnswerWorkQueue(int64_t size,
                            const std::vector<std::string>& head) {
  std::string out = "n=" + std::to_string(size) + ":";
  for (const std::string& name : head) out += name + ",";
  return out;
}

std::string AnswerCount(int64_t count) {
  return "count=" + std::to_string(count);
}

std::string AnswerSetSize(int64_t size) {
  return "members=" + std::to_string(size);
}

std::string AnswerMaterial(size_t attrs_present, const std::string& name) {
  return "attrs=" + std::to_string(attrs_present) + " name=" + name;
}

std::string AnswerMissing(const char* what) {
  return std::string("no ") + what;
}

// ---- ReferenceModel ----------------------------------------------------------

ReferenceModel::ReferenceModel(const std::vector<std::string>& states) {
  for (const std::string& s : states) queues_[s];
}

const ReferenceModel::Material* ReferenceModel::FindMaterial(
    const std::string& name) const {
  auto it = materials_.find(name);
  return it == materials_.end() ? nullptr : &it->second;
}

bool ReferenceModel::Apply(const Event& ev, std::string* error) {
  switch (ev.type) {
    case Event::Type::kCreateMaterial: {
      if (materials_.count(ev.name) || !IsState(ev.state)) {
        *error = "create_material: duplicate name or unknown state: " + ev.name;
        return false;
      }
      Material& m = materials_[ev.name];
      m.state = ev.state;
      m.state_time = ev.time.micros;
      names_.push_back(ev.name);
      queues_[ev.state].insert(ev.name);
      return true;
    }
    case Event::Type::kRecordStep: {
      const int64_t t = ev.time.micros;
      for (const labflow::bench::EffectSpec& effect : ev.effects) {
        auto it = materials_.find(effect.material);
        if (it == materials_.end()) {
          *error = "record_step: unknown material " + effect.material;
          return false;
        }
        Material& m = it->second;
        for (const labflow::bench::TagSpec& tag : effect.tags) {
          Attr& a = m.attrs[tag.attr];
          auto pos = std::upper_bound(
              a.history.begin(), a.history.end(), t,
              [](int64_t time, const std::pair<int64_t, Value>& e) {
                return time < e.first;
              });
          a.history.insert(pos, {t, tag.value});
          // A late entry joins the history but does not displace a value
          // with a later valid time.
          if (t >= a.most_recent_time) {
            a.most_recent = tag.value;
            a.most_recent_time = t;
          }
        }
        if (!effect.new_state.empty()) {
          if (!IsState(effect.new_state)) {
            *error = "record_step: unknown state " + effect.new_state;
            return false;
          }
          if (t >= m.state_time) {
            queues_[m.state].erase(effect.material);
            queues_[effect.new_state].insert(effect.material);
            m.state = effect.new_state;
            m.state_time = t;
          }
        }
      }
      return true;
    }
    case Event::Type::kCreateSet:
      if (!sets_.emplace(ev.name, 0).second) {
        *error = "create_set: duplicate set " + ev.name;
        return false;
      }
      return true;
    case Event::Type::kAddSetMembers: {
      auto it = sets_.find(ev.name);
      if (it == sets_.end()) {
        *error = "add_set_members: unknown set " + ev.name;
        return false;
      }
      for (const std::string& member : ev.members) {
        if (!materials_.count(member)) {
          *error = "add_set_members: unknown material " + member;
          return false;
        }
      }
      it->second += static_cast<int64_t>(ev.members.size());
      return true;
    }
    case Event::Type::kEvolveStepClass:
      return true;  // schema only: no material data changes
    default:
      *error = "not an update event";
      return false;
  }
}

bool ReferenceModel::Answer(const Event& ev, std::string* answer,
                            std::string* error) const {
  auto material = [&]() -> const Material* {
    const Material* m = FindMaterial(ev.name);
    if (m == nullptr) *error = "query of unknown material " + ev.name;
    return m;
  };
  switch (ev.type) {
    case Event::Type::kQueryMostRecent: {
      const Material* m = material();
      if (m == nullptr) return false;
      auto it = m->attrs.find(ev.attr);
      *answer = AnswerMostRecent(
          it == m->attrs.end() || it->second.history.empty()
              ? nullptr
              : &it->second.most_recent);
      return true;
    }
    case Event::Type::kQueryHistory: {
      const Material* m = material();
      if (m == nullptr) return false;
      std::vector<int64_t> times;
      auto it = m->attrs.find(ev.attr);
      if (it != m->attrs.end()) {
        for (const auto& e : it->second.history) times.push_back(e.first);
      }
      *answer = AnswerHistory(times);
      return true;
    }
    case Event::Type::kQueryWorkQueue: {
      auto q = queues_.find(ev.state);
      if (q == queues_.end()) {
        *answer = AnswerMissing("state");
        return true;
      }
      std::vector<std::string> head;
      for (const std::string& name : q->second) {
        if (head.size() == kWorkQueueHead) break;
        head.push_back(name);
      }
      *answer = AnswerWorkQueue(static_cast<int64_t>(q->second.size()), head);
      return true;
    }
    case Event::Type::kQueryCountState: {
      auto q = queues_.find(ev.state);
      *answer = q == queues_.end()
                    ? AnswerMissing("state")
                    : AnswerCount(static_cast<int64_t>(q->second.size()));
      return true;
    }
    case Event::Type::kQuerySetMembers: {
      auto s = sets_.find(ev.name);
      *answer = s == sets_.end() ? AnswerMissing("set")
                                 : AnswerSetSize(s->second);
      return true;
    }
    case Event::Type::kQueryMaterialByName: {
      const Material* m = material();
      if (m == nullptr) return false;
      size_t present = 0;
      for (const auto& [attr, a] : m->attrs) present += !a.history.empty();
      *answer = AnswerMaterial(present, ev.name);
      return true;
    }
    default:
      *error = "not a query event";
      return false;
  }
}

// ---- Stream ------------------------------------------------------------------

const char* EventTypeName(Event::Type type) {
  switch (type) {
    case Event::Type::kCreateMaterial: return "create_material";
    case Event::Type::kRecordStep: return "record_step";
    case Event::Type::kCreateSet: return "create_set";
    case Event::Type::kAddSetMembers: return "add_set_members";
    case Event::Type::kEvolveStepClass: return "evolve_step_class";
    case Event::Type::kQueryMostRecent: return "query_most_recent";
    case Event::Type::kQueryHistory: return "query_history";
    case Event::Type::kQueryWorkQueue: return "query_work_queue";
    case Event::Type::kQueryCountState: return "query_count_state";
    case Event::Type::kQuerySetMembers: return "query_set_members";
    case Event::Type::kQueryMaterialByName: return "query_material_by_name";
  }
  return "?";
}

namespace {

uint64_t UserBytes(const Event& ev) {
  uint64_t n = 0;
  switch (ev.type) {
    case Event::Type::kCreateMaterial:
      n += ev.name.size() + ev.material_class.size() + ev.state.size();
      break;
    case Event::Type::kRecordStep:
      for (const labflow::bench::EffectSpec& e : ev.effects) {
        n += e.material.size() + e.new_state.size();
        for (const labflow::bench::TagSpec& tag : e.tags) {
          n += tag.attr.size() + tag.value.ToString().size();
        }
      }
      break;
    case Event::Type::kCreateSet:
      n += ev.name.size();
      break;
    case Event::Type::kAddSetMembers:
      for (const std::string& m : ev.members) n += m.size();
      break;
    default:
      break;
  }
  return n;
}

}  // namespace

bool BuildStream(const labflow::bench::WorkloadParams& params, Stream* stream,
                 std::string* error) {
  labflow::bench::WorkloadGenerator generator(params);
  stream->params = params;
  stream->states = generator.graph().states;
  stream->model = ReferenceModel(stream->states);
  Event ev;
  while (generator.Next(&ev)) {
    std::string answer;
    if (ev.IsUpdate()) {
      if (!stream->model.Apply(ev, error)) return false;
      stream->user_bytes += UserBytes(ev);
      ++stream->composition.updates;
    } else {
      if (!stream->model.Answer(ev, &answer, error)) return false;
      ++stream->composition.queries;
    }
    ++stream->composition.by_type[static_cast<int>(ev.type)];
    ++stream->composition.events;
    stream->expected.push_back(std::move(answer));
    stream->events.push_back(std::move(ev));
    ev = Event();
  }
  return true;
}

}  // namespace perfbench

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/status_macros.h"

namespace perfbench {

using labflow::Oid;
using labflow::Result;
using labflow::Status;
using labflow::Timestamp;
using labflow::Value;
namespace labbase = labflow::labbase;
namespace storage = labflow::storage;

namespace {

// The generation is kept apart from the state: Start() frees the states of
// earlier generations, which threads that outlive a round still point at.
thread_local Tracer::ThreadState* tls_state = nullptr;
thread_local uint64_t tls_generation = 0;

uint32_t Clamp32(uint64_t ns) {
  return static_cast<uint32_t>(
      std::min<uint64_t>(ns, std::numeric_limits<uint32_t>::max()));
}

}  // namespace

// ---- Tracer ------------------------------------------------------------------

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // never destroyed: threads may outlive
  return *tracer;
}

void Tracer::Start(bool remote) {
  std::lock_guard<std::mutex> g(mu_);
  threads_.clear();
  generation_.fetch_add(1, std::memory_order_relaxed);
  remote_ = remote;
  replay_thread_ = std::this_thread::get_id();
  epoch_ = std::chrono::steady_clock::now();
  call_in_flight.store(false);
  call_child_ns.store(0);
  parent_.store(kParentSetup);
  active_.store(true);
}

void Tracer::Stop() { active_.store(false); }

Tracer::ThreadState* Tracer::Thread() {
  uint64_t gen = generation_.load(std::memory_order_relaxed);
  if (tls_state != nullptr && tls_generation == gen) return tls_state;
  auto state = std::make_unique<ThreadState>();
  state->replay = std::this_thread::get_id() == replay_thread_;
  // A traced round of the 1,200-clone stream records ~2.7 M spans on the
  // replay thread; reserving them avoids copying the buffer mid-replay.
  state->spans.reserve(state->replay ? (1u << 22) : (1u << 12));
  std::lock_guard<std::mutex> g(mu_);
  state->id = static_cast<uint16_t>(threads_.size());
  tls_state = state.get();
  tls_generation = gen;
  threads_.push_back(std::move(state));
  return tls_state;
}

std::vector<Span> Tracer::Collect() const {
  std::lock_guard<std::mutex> g(mu_);
  std::vector<Span> out;
  size_t n = 0;
  for (const auto& t : threads_) n += t->spans.size();
  out.reserve(n);
  for (const auto& t : threads_) {
    out.insert(out.end(), t->spans.begin(), t->spans.end());
  }
  return out;
}

bool Tracer::WriteSpans(const std::string& path,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const char magic[8] = {'L', 'F', 'S', 'P', 'A', 'N', '0', '1'};
  uint64_t count = spans.size();
  bool ok = std::fwrite(magic, 1, sizeof(magic), f) == sizeof(magic) &&
            std::fwrite(&count, sizeof(count), 1, f) == 1 &&
            std::fwrite(spans.data(), sizeof(Span), spans.size(), f) ==
                spans.size();
  return std::fclose(f) == 0 && ok;
}

// ---- ScopedSpan --------------------------------------------------------------

ScopedSpan::ScopedSpan(Layer layer, uint8_t op) : layer_(layer), op_(op) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.active()) return;
  ts_ = tracer.Thread();
  Tracer::Frame frame{tracer.NowNs(), 0, kParentBackground, false};
  if (!ts_->stack.empty()) {
    frame.parent = ts_->stack.back().parent;
  } else if (ts_->replay) {
    frame.parent = tracer.parent();
  } else if (tracer.remote() &&
             tracer.call_in_flight.load(std::memory_order_acquire)) {
    frame.parent = tracer.parent();
    frame.cross = true;
  }
  ts_->stack.push_back(frame);
}

ScopedSpan::~ScopedSpan() {
  if (ts_ == nullptr) return;
  Tracer& tracer = Tracer::Get();
  uint64_t end = tracer.NowNs();
  Tracer::Frame frame = ts_->stack.back();
  ts_->stack.pop_back();
  uint64_t dur = end - frame.start_ns;
  Span span;
  span.start_ns = frame.start_ns;
  span.dur_ns = Clamp32(dur);
  span.child_ns = Clamp32(frame.child_ns);
  span.parent = frame.parent;
  span.layer = layer_;
  span.op = op_;
  span.thread = ts_->id;
  ts_->spans.push_back(span);
  if (!ts_->stack.empty()) {
    ts_->stack.back().child_ns += dur;
  } else if (frame.cross) {
    tracer.call_child_ns.fetch_add(dur, std::memory_order_acq_rel);
  }
}

// ---- TimedEnv ----------------------------------------------------------------

namespace {

class TimedFile : public storage::File {
 public:
  TimedFile(std::unique_ptr<storage::File> base, EnvCounters* counters)
      : base_(std::move(base)), counters_(counters) {}

  Status Read(uint64_t offset, size_t n, char* buf) override {
    ScopedSpan span(kEnvLayer, kERead);
    counters_->read_bytes.fetch_add(n, std::memory_order_relaxed);
    return base_->Read(offset, n, buf);
  }
  Status Write(uint64_t offset, std::string_view data) override {
    ScopedSpan span(kEnvLayer, kEWrite);
    counters_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Write(offset, data);
  }
  Status Append(std::string_view data) override {
    ScopedSpan span(kEnvLayer, kEWrite);
    counters_->write_bytes.fetch_add(data.size(), std::memory_order_relaxed);
    return base_->Append(data);
  }
  Status Sync() override {
    ScopedSpan span(kEnvLayer, kESync);
    return base_->Sync();
  }
  Result<uint64_t> Size() const override { return base_->Size(); }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<storage::File> base_;
  EnvCounters* counters_;
};

}  // namespace

Result<std::unique_ptr<storage::File>> TimedEnv::OpenFile(
    const std::string& path, bool truncate) {
  ScopedSpan span(kEnvLayer, kEOpen);
  Result<std::unique_ptr<storage::File>> file = base_->OpenFile(path, truncate);
  if (!file.ok()) return file.status();
  return std::unique_ptr<storage::File>(
      std::make_unique<TimedFile>(std::move(file.value()), &counters_));
}

// ---- TracingManager ----------------------------------------------------------

namespace {

/// A wrapper transaction: the inner manager's handle, or why it is missing.
struct TracedTxn : storage::Txn {
  TracedTxn(storage::StorageManager* owner, uint64_t id) : Txn(owner, id) {}
  storage::Txn* inner = nullptr;
  Status begin_status;
};

/// The inner handle for `txn`; an error when the inner Begin failed, so an
/// operation never falls back to auto-commit behind the caller's back.
Result<storage::Txn*> Inner(storage::Txn* txn) {
  if (txn == nullptr) return static_cast<storage::Txn*>(nullptr);
  auto* traced = static_cast<TracedTxn*>(txn);
  if (traced->inner == nullptr) return traced->begin_status;
  return traced->inner;
}

}  // namespace

std::unique_ptr<storage::Txn> TracingManager::CreateTxn(uint64_t id) {
  auto txn = std::make_unique<TracedTxn>(this, id);
  ScopedSpan span(kStorageLayer, kMBegin);
  Result<storage::Txn*> inner = inner_->Begin();
  if (inner.ok()) {
    txn->inner = inner.value();
  } else {
    txn->begin_status = inner.status();
  }
  return txn;
}

Status TracingManager::CommitTxn(storage::Txn* txn) {
  auto* traced = static_cast<TracedTxn*>(txn);
  if (traced->inner == nullptr) return traced->begin_status;
  ScopedSpan span(kStorageLayer, kMCommit);
  return inner_->Commit(traced->inner);
}

Status TracingManager::AbortTxn(storage::Txn* txn) {
  auto* traced = static_cast<TracedTxn*>(txn);
  if (traced->inner == nullptr) return traced->begin_status;
  ScopedSpan span(kStorageLayer, kMAbort);
  return inner_->Abort(traced->inner);
}

Result<storage::ObjectId> TracingManager::DoAllocate(
    storage::Txn* txn, std::string_view data, const storage::AllocHint& hint) {
  ScopedSpan span(kStorageLayer, kMAllocate);
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn* inner, Inner(txn));
  return inner_->Allocate(inner, data, hint);
}

Result<std::string> TracingManager::DoRead(storage::Txn* txn,
                                           storage::ObjectId id) {
  ScopedSpan span(kStorageLayer, kMRead);
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn* inner, Inner(txn));
  return inner_->Read(inner, id);
}

Status TracingManager::DoUpdate(storage::Txn* txn, storage::ObjectId id,
                                std::string_view data) {
  ScopedSpan span(kStorageLayer, kMUpdate);
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn* inner, Inner(txn));
  return inner_->Update(inner, id, data);
}

Status TracingManager::DoFree(storage::Txn* txn, storage::ObjectId id) {
  ScopedSpan span(kStorageLayer, kMFree);
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn* inner, Inner(txn));
  return inner_->Free(inner, id);
}

Status TracingManager::DoScanAll(
    storage::Txn* txn,
    const std::function<Status(storage::ObjectId, std::string_view)>& fn) {
  ScopedSpan span(kStorageLayer, kMScanAll);
  LABFLOW_ASSIGN_OR_RETURN(storage::Txn* inner, Inner(txn));
  return inner_->ScanAll(inner, fn);
}

Result<uint16_t> TracingManager::CreateSegment(std::string_view name) {
  ScopedSpan span(kStorageLayer, kMCatalog);
  return inner_->CreateSegment(name);
}

Status TracingManager::SetRoot(storage::ObjectId root) {
  ScopedSpan span(kStorageLayer, kMCatalog);
  return inner_->SetRoot(root);
}

Result<storage::ObjectId> TracingManager::GetRoot() {
  ScopedSpan span(kStorageLayer, kMCatalog);
  return inner_->GetRoot();
}

Status TracingManager::Checkpoint() {
  ScopedSpan span(kStorageLayer, kMCheckpoint);
  return inner_->Checkpoint();
}

Status TracingManager::Close() {
  // The inner manager drops its own live transactions; the wrapper's
  // registry only holds handles that point at them.
  DropActiveTxns();
  ScopedSpan span(kStorageLayer, kMClose);
  return inner_->Close();
}

// ---- TracingSession ----------------------------------------------------------

namespace {

Status StatusOf(const Status& s) { return s; }
template <typename T>
Status StatusOf(const Result<T>& r) {
  return r.status();
}

}  // namespace

template <typename Fn>
auto TracingSession::Call(SessionOp op, Fn&& fn) -> decltype(fn()) {
  ++calls_.attempted;
  Tracer& tracer = Tracer::Get();
  ScopedSpan span(kSessionLayer, op);
  const bool mark = remote_ && tracer.active();
  if (mark) {
    tracer.call_child_ns.store(0, std::memory_order_relaxed);
    tracer.call_in_flight.store(true, std::memory_order_release);
  }
  auto result = fn();
  if (mark) {
    tracer.call_in_flight.store(false, std::memory_order_release);
    span.AddChildNs(tracer.call_child_ns.load(std::memory_order_acquire));
  }
  Status st = StatusOf(result);
  if (st.IsNotFound()) {
    ++calls_.not_found;
  } else if (!st.ok()) {
    ++calls_.failed;
  }
  return result;
}

Status TracingSession::Begin() {
  return Call(kSBegin, [&] { return inner_->Begin(); });
}
Status TracingSession::BeginReadOnly() {
  return Call(kSBegin, [&] { return inner_->BeginReadOnly(); });
}
Status TracingSession::Commit() {
  return Call(kSCommit, [&] { return inner_->Commit(); });
}
Status TracingSession::Abort() {
  return Call(kSAbort, [&] { return inner_->Abort(); });
}

Status TracingSession::RunTransaction(const std::function<Status()>& body) {
  // Spelled out rather than forwarded so Begin and Commit are traced; the
  // benchmark runs one client, so there is no deadlock to retry.
  LABFLOW_RETURN_IF_ERROR(Begin());
  Status st = body();
  if (!st.ok()) {
    Status aborted = Abort();
    (void)aborted;  // surfacing the body's error
    return st;
  }
  return Commit();
}

Result<labbase::ClassId> TracingSession::DefineMaterialClass(
    std::string_view name) {
  return Call(kSOther, [&] { return inner_->DefineMaterialClass(name); });
}
Result<labbase::ClassId> TracingSession::DefineStepClass(
    std::string_view name, const std::vector<std::string>& attr_names) {
  return Call(kSDefineStepClass,
              [&] { return inner_->DefineStepClass(name, attr_names); });
}
Result<labbase::StateId> TracingSession::DefineState(std::string_view name) {
  return Call(kSOther, [&] { return inner_->DefineState(name); });
}

Result<Oid> TracingSession::CreateMaterial(labbase::ClassId material_class,
                                           std::string_view name,
                                           labbase::StateId initial_state,
                                           Timestamp created) {
  return Call(kSCreateMaterial, [&] {
    return inner_->CreateMaterial(material_class, name, initial_state, created);
  });
}
Result<Oid> TracingSession::RecordStep(
    labbase::ClassId step_class, Timestamp time,
    const std::vector<labbase::StepEffect>& effects) {
  return Call(kSRecordStep,
              [&] { return inner_->RecordStep(step_class, time, effects); });
}

Result<Value> TracingSession::MostRecent(Oid material, labbase::AttrId attr) {
  return Call(kSMostRecent, [&] { return inner_->MostRecent(material, attr); });
}
Result<Value> TracingSession::MostRecent(Oid material,
                                         std::string_view attr_name) {
  return Call(kSMostRecent,
              [&] { return inner_->MostRecent(material, attr_name); });
}
Result<std::vector<labbase::HistoryEntry>> TracingSession::History(
    Oid material, labbase::AttrId attr) {
  return Call(kSHistory, [&] { return inner_->History(material, attr); });
}
Result<Value> TracingSession::ValueAsOf(Oid material, labbase::AttrId attr,
                                        Timestamp at) {
  return Call(kSOther, [&] { return inner_->ValueAsOf(material, attr, at); });
}
Result<std::vector<labbase::HistoryEntry>> TracingSession::HistoryBetween(
    Oid material, labbase::AttrId attr, Timestamp from, Timestamp to) {
  return Call(kSOther, [&] {
    return inner_->HistoryBetween(material, attr, from, to);
  });
}
Result<labbase::MaterialInfo> TracingSession::GetMaterial(Oid material) {
  return Call(kSGetMaterial, [&] { return inner_->GetMaterial(material); });
}
Result<labbase::StepInfo> TracingSession::GetStep(Oid step) {
  return Call(kSOther, [&] { return inner_->GetStep(step); });
}
Result<Oid> TracingSession::FindMaterialByName(std::string_view name) {
  return Call(kSFindMaterialByName,
              [&] { return inner_->FindMaterialByName(name); });
}
Result<labbase::StateId> TracingSession::CurrentState(Oid material) {
  return Call(kSOther, [&] { return inner_->CurrentState(material); });
}
Result<std::vector<Oid>> TracingSession::MaterialsInState(
    labbase::StateId state) {
  return Call(kSMaterialsInState,
              [&] { return inner_->MaterialsInState(state); });
}
Result<int64_t> TracingSession::CountInState(labbase::StateId state) {
  return Call(kSCountInState, [&] { return inner_->CountInState(state); });
}
Result<std::vector<Oid>> TracingSession::MaterialsOfClass(
    labbase::ClassId material_class) {
  return Call(kSOther,
              [&] { return inner_->MaterialsOfClass(material_class); });
}
Result<std::vector<Oid>> TracingSession::ListSteps() {
  return Call(kSOther, [&] { return inner_->ListSteps(); });
}

Result<Oid> TracingSession::CreateSet(std::string_view name) {
  return Call(kSCreateSet, [&] { return inner_->CreateSet(name); });
}
Status TracingSession::AddToSet(Oid set, Oid material) {
  return Call(kSAddToSet, [&] { return inner_->AddToSet(set, material); });
}
Status TracingSession::RemoveFromSet(Oid set, Oid material) {
  return Call(kSOther, [&] { return inner_->RemoveFromSet(set, material); });
}
Result<std::vector<Oid>> TracingSession::SetMembers(Oid set) {
  return Call(kSSetMembers, [&] { return inner_->SetMembers(set); });
}
Result<Oid> TracingSession::FindSetByName(std::string_view name) {
  return Call(kSFindSetByName, [&] { return inner_->FindSetByName(name); });
}

Status TracingSession::Checkpoint() {
  return Call(kSOther, [&] { return inner_->Checkpoint(); });
}

}  // namespace perfbench

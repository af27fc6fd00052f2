#include "kernels/backend.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>
#include <utility>

#include "quant/fixed_point.h"

namespace defa::kernels {

Tensor Backend::run_msgs(const ModelConfig& m, const Tensor& values, const Tensor& probs,
                         const Tensor& locs, const MsgsSpec& spec) const {
  if (!spec.quantized) return run_msgs_fp32(m, values, probs, locs, spec);
  return run_msgs_int(m, quant::QTensor(values, spec.act_bits), probs, locs, spec);
}

namespace {

struct RegistryState {
  std::mutex mu;
  std::vector<std::unique_ptr<Backend>> backends;  // guarded by mu
};

RegistryState& state() {
  static RegistryState* s = [] {
    auto* st = new RegistryState;
    st->backends.push_back(detail::make_reference_backend());
    st->backends.push_back(detail::make_fused_backend());
    st->backends.push_back(detail::make_simd_backend());
    st->backends.push_back(detail::make_tiled_backend());
    st->backends.push_back(detail::make_quill_backend());
    return st;
  }();
  return *s;
}

const Backend* find_locked(const RegistryState& s, const std::string& name) {
  for (const auto& b : s.backends) {
    if (b->name() == name) return b.get();
  }
  return nullptr;
}

std::string known_names_locked(const RegistryState& s) {
  std::string names;
  for (const auto& b : s.backends) {
    if (!names.empty()) names += ", ";
    names += b->name();
  }
  return names;
}

}  // namespace

void register_backend(std::unique_ptr<Backend> backend) {
  DEFA_CHECK(backend != nullptr, "register_backend: null backend");
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  DEFA_CHECK(find_locked(s, backend->name()) == nullptr,
             "register_backend: duplicate backend name '" + backend->name() + "'");
  s.backends.push_back(std::move(backend));
}

const Backend* find_backend(const std::string& name) noexcept {
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  return find_locked(s, name);
}

const Backend& backend(const std::string& name) {
  RegistryState& s = state();
  const std::lock_guard<std::mutex> lock(s.mu);
  const Backend* b = find_locked(s, name);
  DEFA_CHECK(b != nullptr, "kernels: unknown backend '" + name + "' (known: " +
                               known_names_locked(s) + ")");
  return *b;
}

std::vector<std::string> backend_names() {
  RegistryState& s = state();
  std::vector<std::string> names;
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    names.reserve(s.backends.size());
    for (const auto& b : s.backends) names.push_back(b->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::string known_backends() {
  std::string names;
  for (const std::string& n : backend_names()) {
    if (!names.empty()) names += ", ";
    names += n;
  }
  return names;
}

std::string default_backend_name() {
  // Re-read the environment on every call so tests can flip DEFA_BACKEND;
  // production callers resolve once per request anyway.
  if (const char* env = std::getenv("DEFA_BACKEND");
      env != nullptr && *env != '\0' && find_backend(env) != nullptr) {
    return env;
  }
  return "reference";
}

const Backend& default_backend() { return backend(default_backend_name()); }

const Backend& backend_or_default(const Backend* b) {
  return b != nullptr ? *b : default_backend();
}

}  // namespace defa::kernels

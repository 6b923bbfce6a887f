#include "rs/gao.hpp"

#include "field/backend_dispatch.hpp"
#include "obs/trace.hpp"
#include "poly/fast_div.hpp"
#include "poly/hgcd.hpp"

namespace camelot {

namespace {

// The remainder-sequence core, templated over the backend exactly like
// the poly kernels it drives. g0/g1 and the returned message are in
// the backend's value domain; the caller handles boundary conversion.
// The remainder sequence runs through the half-GCD engine; every
// quotient step (and the final exactness division) dispatches through
// the Newton-inverse fast division when the operand degrees warrant
// it, reusing the code's cached twiddle tables.
template <class Field>
bool gao_core(const Poly& g0, const Poly& g1, std::size_t e, std::size_t d,
              const Field& f, Poly* message, const NttTables* tables,
              XgcdStats* stats) {
  // Stop when deg G < (e + d + 1) / 2.
  const int stop = static_cast<int>((e + d + 1) / 2);
  Poly g, u, v;
  poly_xgcd_partial_hgcd(g0, g1, stop, f, &g, &u, &v, tables, stats);

  Poly p, r;
  if (v.is_zero()) return false;
  poly_divrem_auto(g, v, f, &p, &r, tables);
  if (!r.is_zero() || p.degree() > static_cast<int>(d)) {
    return false;  // decoding failure: too many errors
  }
  *message = std::move(p);
  return true;
}

// Decode core over boundary-prepared words: `canonical` holds the
// received word as canonical representatives, `domain` the same word
// in the backend's value domain (equal to `canonical` under the
// division backend). Both gao_decode and StreamingGaoDecoder::finish
// land here, which is what keeps streaming decodes bit-identical to
// barrier ones.
GaoResult gao_decode_prepared(const ReedSolomonCode& code,
                              std::span<const u64> canonical,
                              std::span<const u64> domain) {
  GaoResult out;
  // Emits the decode outcome when the run returns (success or not) —
  // the per-decode observability hook behind CAMELOT_TRACE=rs.
  struct TraceOnExit {
    const ReedSolomonCode& code;
    const GaoResult& r;
    ~TraceOnExit() {
      CAMELOT_TRACE_MSG(
          obs::kTraceRs,
          "gao decode prime=%llu e=%zu status=%s errors=%zu steps=%zu "
          "hgcd=%zu",
          static_cast<unsigned long long>(code.ops().prime().modulus()),
          code.length(), r.status == DecodeStatus::kOk ? "ok" : "fail",
          r.error_locations.size(), r.quotient_steps, r.hgcd_calls);
    }
  } trace_on_exit{code, out};
  const FieldOps& ops = code.ops();
  const PrimeField& f = ops.prime();
  const std::size_t e = code.length();
  const std::size_t d = code.degree_bound();

  const bool montgomery = ops.backend() != FieldBackend::kPrimeDivision;

  // Interpolate G1 through the received word, in the backend's domain.
  Poly g1 = code.interpolate_domain(domain);

  // The received word is itself a codeword (in particular the all-zero
  // word, which degenerates the Euclidean remainder sequence).
  if (g1.degree() <= static_cast<int>(d)) {
    out.status = DecodeStatus::kOk;
    out.message = montgomery ? Poly{ops.mont().from_mont_vec(g1.c)}
                             : std::move(g1);
    out.corrected.assign(canonical.begin(), canonical.end());
    return out;
  }

  // Run the remainder sequence on the selected backend. Every backend
  // computes identical field values; only the representation (and the
  // per-multiply cost) differs.
  Poly message;
  XgcdStats stats;
  const Poly& g0 = code.vanishing_domain();
  bool ok;
  if (montgomery) {
    ok = with_lane_field(ops.backend(), ops.mont(), [&](const auto& lane) {
      return gao_core(g0, g1, e, d, lane, &message, ops.ntt_tables().get(),
                      &stats);
    });
  } else {
    ok = gao_core(g0, g1, e, d, f, &message, nullptr, &stats);
  }
  out.quotient_steps = stats.quotient_steps;
  out.hgcd_calls = stats.hgcd_calls;
  if (!ok) return out;

  out.status = DecodeStatus::kOk;
  out.corrected = code.evaluate_domain(message);
  if (montgomery) {
    out.message = Poly{ops.mont().from_mont_vec(message.c)};
    ops.mont().from_mont_inplace(out.corrected);
  } else {
    out.message = std::move(message);
  }
  for (std::size_t i = 0; i < e; ++i) {
    if (out.corrected[i] != canonical[i]) {
      out.error_locations.push_back(i);
    }
  }
  // A "successful" decode that corrected more symbols than the unique
  // decoding radius can only arise from a received word that lies
  // within radius of a *different* codeword; report it as-is (the
  // caller's verification step (eq. (2)) is the final authority).
  return out;
}

}  // namespace

GaoResult gao_decode(const ReedSolomonCode& code,
                     std::span<const u64> received) {
  if (received.size() != code.length()) {
    throw std::invalid_argument("gao_decode: received length mismatch");
  }
  const PrimeField& f = code.ops().prime();
  std::vector<u64> canonical(received.begin(), received.end());
  for (u64& v : canonical) v = f.reduce(v);
  if (code.ops().backend() == FieldBackend::kPrimeDivision) {
    return gao_decode_prepared(code, canonical, canonical);
  }
  const MontgomeryField& m = code.ops().mont();
  std::vector<u64> domain(canonical.size(), 0);
  for (std::size_t i = 0; i < canonical.size(); ++i) {
    domain[i] = m.to_mont(canonical[i]);
  }
  return gao_decode_prepared(code, canonical, domain);
}

StreamingGaoDecoder::StreamingGaoDecoder(const ReedSolomonCode& code)
    : code_(code),
      montgomery_(code.ops().backend() != FieldBackend::kPrimeDivision),
      canonical_(code.length(), 0),
      seen_(code.length(), false) {
  if (montgomery_) domain_.assign(code.length(), 0);
}

void StreamingGaoDecoder::absorb(std::size_t offset,
                                 std::span<const u64> symbols) {
  if (offset > canonical_.size() ||
      symbols.size() > canonical_.size() - offset) {
    throw std::logic_error("StreamingGaoDecoder::absorb: chunk out of range");
  }
  const PrimeField& f = code_.ops().prime();
  const MontgomeryField* m = montgomery_ ? &code_.ops().mont() : nullptr;
  for (std::size_t j = 0; j < symbols.size(); ++j) {
    const std::size_t i = offset + j;
    if (seen_[i]) {
      throw std::logic_error(
          "StreamingGaoDecoder::absorb: position absorbed twice");
    }
    seen_[i] = true;
    canonical_[i] = f.reduce(symbols[j]);
    if (m != nullptr) domain_[i] = m->to_mont(canonical_[i]);
  }
  absorbed_ += symbols.size();
}

std::vector<std::pair<std::size_t, std::size_t>>
StreamingGaoDecoder::missing_runs() const {
  std::vector<std::pair<std::size_t, std::size_t>> runs;
  const std::size_t e = seen_.size();
  std::size_t i = 0;
  while (i < e) {
    if (seen_[i]) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < e && !seen_[j]) ++j;
    runs.emplace_back(i, j);
    i = j;
  }
  return runs;
}

GaoResult StreamingGaoDecoder::finish() const {
  if (!ready()) {
    throw std::logic_error(
        "StreamingGaoDecoder::finish: stream incomplete — "
        "not every symbol was absorbed");
  }
  return gao_decode_prepared(code_, canonical_,
                             montgomery_ ? domain_ : canonical_);
}

}  // namespace camelot

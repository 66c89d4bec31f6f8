#include "rete/token_store.h"

#include <algorithm>
#include <bit>

namespace prodb {

namespace {

/// Folds one key component into a running key hash. Value::Hash hashes
/// int 3 and real 3.0 alike, so values equal under EvalCompare(kEq) land
/// in one bucket; distinct values may collide, which only adds visits.
uint64_t MixKey(uint64_t h, const Value& v) {
  return h ^ (v.Hash() + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

bool SameIds(TokenView a, TokenView b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const TokenSlot& x, const TokenSlot& y) {
                      return x.id == y.id;
                    });
}

Status WidthMismatch(size_t got, size_t want) {
  return Status::InvalidArgument("token of width " + std::to_string(got) +
                                 " in a store of width " +
                                 std::to_string(want));
}

}  // namespace

MemoryTokenStore::MemoryTokenStore(size_t width,
                                   std::vector<TokenKeyCol> key_cols)
    : width_(width), key_cols_(std::move(key_cols)) {
  // A column outside the token voids the whole schema (the store stays
  // scannable), as for the relation-backed store.
  for (const TokenKeyCol& c : key_cols_) {
    if (c.pos >= width_) {
      key_cols_.clear();
      break;
    }
  }
}

uint64_t MemoryTokenStore::HashOf(TokenView token) const {
  uint64_t h = 0;
  for (const TokenKeyCol& c : key_cols_) {
    const Tuple& t = *token[c.pos].tuple;
    const size_t attr = static_cast<size_t>(c.attr);
    h = MixKey(h, attr < t.arity() ? t[attr] : Value());
  }
  return h;
}

size_t MemoryTokenStore::Home(uint64_t hash) const {
  // Fibonacci hashing: the top bits of the product spread keys whose
  // hashes differ only in high or only in low bits.
  return static_cast<size_t>((hash * 0x9e3779b97f4a7c15ull) >> shift_);
}

size_t MemoryTokenStore::Probe(uint64_t hash) const {
  const size_t mask = table_.size() - 1;
  size_t at = Home(hash);
  while (!table_[at].slots.empty() && table_[at].hash != hash) {
    at = (at + 1) & mask;
  }
  return at;
}

void MemoryTokenStore::Grow() {
  std::vector<Bucket> old = std::move(table_);
  const size_t size = old.empty() ? 8 : 2 * old.size();
  table_ = std::vector<Bucket>(size);
  shift_ = 64 - std::countr_zero(size);
  for (Bucket& b : old) {
    if (!b.slots.empty()) table_[Probe(b.hash)] = std::move(b);
  }
}

void MemoryTokenStore::EraseAt(size_t at) {
  // Free the emptied bucket's slot storage: a drained key holds none.
  std::vector<TokenSlot>().swap(table_[at].slots);
  --buckets_used_;
  // Backward-shift deletion: walk the rest of the probe run and move
  // back into the hole each bucket whose home is not after the hole, so
  // every bucket stays reachable from its home without tombstones.
  const size_t mask = table_.size() - 1;
  size_t hole = at;
  for (size_t i = (at + 1) & mask; !table_[i].slots.empty();
       i = (i + 1) & mask) {
    if (((i - Home(table_[i].hash)) & mask) >= ((i - hole) & mask)) {
      std::swap(table_[hole], table_[i]);
      hole = i;
    }
  }
}

Status MemoryTokenStore::Add(TokenView token) {
  if (token.size() != width_) return WidthMismatch(token.size(), width_);
  const uint64_t h = HashOf(token);
  size_t at = table_.empty() ? 0 : Probe(h);
  if (table_.empty() || table_[at].slots.empty()) {
    // A new key: keep the table at most 3/4 full.
    if (4 * (buckets_used_ + 1) > 3 * table_.size()) {
      Grow();
      at = Probe(h);
    }
    table_[at].hash = h;
    ++buckets_used_;
  }
  std::vector<TokenSlot>& bucket = table_[at].slots;
  bucket.insert(bucket.end(), token.begin(), token.end());
  ++size_;
  return Status::OK();
}

Status MemoryTokenStore::RemoveExact(TokenView token, bool* found) {
  *found = false;
  if (token.size() != width_) return WidthMismatch(token.size(), width_);
  if (table_.empty()) return Status::OK();
  // A tuple id never changes value (ids are not reused), so tokens with
  // equal id combinations carry equal key values and share a bucket.
  const size_t bucket_at = Probe(HashOf(token));
  std::vector<TokenSlot>& bucket = table_[bucket_at].slots;
  for (size_t at = 0; at < bucket.size(); at += width_) {
    if (!SameIds(TokenView(bucket).subspan(at, width_), token)) continue;
    // Fill the hole with the bucket's last token, the order every probe
    // of this key then visits (see the class comment).
    const size_t last = bucket.size() - width_;
    if (at != last) {
      std::move(bucket.begin() + static_cast<ptrdiff_t>(last), bucket.end(),
                bucket.begin() + static_cast<ptrdiff_t>(at));
    }
    bucket.resize(last);
    if (bucket.empty()) EraseAt(bucket_at);
    --size_;
    *found = true;
    return Status::OK();
  }
  return Status::OK();
}

Status MemoryTokenStore::Scan(const Visitor& fn) const {
  for (const Bucket& b : table_) {
    for (size_t at = 0; at < b.slots.size(); at += width_) {
      PRODB_RETURN_IF_ERROR(fn(TokenView(b.slots).subspan(at, width_)));
    }
  }
  return Status::OK();
}

Status MemoryTokenStore::ScanMatching(const std::vector<Value>& key,
                                      const Visitor& fn) const {
  if (!keyed() || key.size() != key_cols_.size()) return Scan(fn);
  if (table_.empty()) return Status::OK();
  uint64_t h = 0;
  for (const Value& v : key) h = MixKey(h, v);
  const std::vector<TokenSlot>& bucket = table_[Probe(h)].slots;
  for (size_t at = 0; at < bucket.size(); at += width_) {
    PRODB_RETURN_IF_ERROR(fn(TokenView(bucket).subspan(at, width_)));
  }
  return Status::OK();
}

size_t MemoryTokenStore::FootprintBytes(
    std::unordered_set<const Tuple*>* counted) const {
  // A make_shared payload adds its control block to the tuple.
  constexpr size_t kControlBlockBytes = 16;
  size_t total = sizeof(*this) + table_.capacity() * sizeof(Bucket);
  for (const Bucket& b : table_) {
    total += b.slots.capacity() * sizeof(TokenSlot);
    for (const TokenSlot& s : b.slots) {
      if (counted->insert(s.tuple.get()).second) {
        total += kControlBlockBytes + s.tuple->FootprintBytes();
      }
    }
  }
  return total;
}

Status RelationTokenStore::Create(
    Catalog* catalog, const std::string& name, std::vector<size_t> arities,
    StorageKind storage, std::unique_ptr<RelationTokenStore>* out,
    std::vector<TokenKeyCol> key_cols) {
  std::vector<Attribute> attrs;
  for (size_t p = 0; p < arities.size(); ++p) {
    attrs.push_back(
        Attribute{"p" + std::to_string(p) + "_page", ValueType::kInt});
    attrs.push_back(
        Attribute{"p" + std::to_string(p) + "_slot", ValueType::kInt});
  }
  for (size_t p = 0; p < arities.size(); ++p) {
    for (size_t a = 0; a < arities[p]; ++a) {
      attrs.push_back(Attribute{
          "p" + std::to_string(p) + "_a" + std::to_string(a),
          ValueType::kSymbol});
    }
  }
  // Map each key column to its encoded-row column index; an out-of-range
  // column voids the whole schema (the store stays scannable).
  std::vector<int> key_attr_cols;
  for (const TokenKeyCol& c : key_cols) {
    if (c.pos >= arities.size() ||
        static_cast<size_t>(c.attr) >= arities[c.pos]) {
      key_attr_cols.clear();
      break;
    }
    size_t col = 2 * arities.size();
    for (size_t p = 0; p < c.pos; ++p) col += arities[p];
    key_attr_cols.push_back(static_cast<int>(col) + c.attr);
  }
  Relation* rel;
  PRODB_RETURN_IF_ERROR(
      catalog->CreateRelation(Schema(name, attrs), storage, &rel));
  for (int col : key_attr_cols) {
    if (!rel->HasHashIndex(col)) {
      PRODB_RETURN_IF_ERROR(rel->CreateHashIndex(col));
    }
  }
  out->reset(new RelationTokenStore(rel, std::move(arities),
                                    std::move(key_attr_cols)));
  return Status::OK();
}

Tuple RelationTokenStore::Encode(TokenView token) const {
  Tuple row;
  auto& vals = row.mutable_values();
  for (const TokenSlot& s : token) {
    vals.emplace_back(static_cast<int64_t>(s.id.page_id));
    vals.emplace_back(static_cast<int64_t>(s.id.slot_id));
  }
  for (size_t p = 0; p < arities_.size(); ++p) {
    const Tuple& t = *token[p].tuple;
    for (size_t a = 0; a < arities_[p]; ++a) {
      if (a < t.arity()) {
        vals.push_back(t[a]);
      } else {
        vals.emplace_back();
      }
    }
  }
  return row;
}

std::vector<TokenSlot> RelationTokenStore::Decode(const Tuple& row) const {
  const size_t n = arities_.size();
  std::vector<TokenSlot> token(n);
  size_t off = 0;
  for (size_t p = 0; p < n; ++p) {
    token[p].id.page_id = static_cast<uint32_t>(row[off++].as_int());
    token[p].id.slot_id = static_cast<uint32_t>(row[off++].as_int());
  }
  for (size_t p = 0; p < n; ++p) {
    std::vector<Value> vals;
    vals.reserve(arities_[p]);
    for (size_t a = 0; a < arities_[p]; ++a) {
      vals.push_back(row[off++]);
    }
    token[p].tuple = std::make_shared<const Tuple>(std::move(vals));
  }
  return token;
}

Status RelationTokenStore::Add(TokenView token) {
  if (token.size() != arities_.size()) {
    return WidthMismatch(token.size(), arities_.size());
  }
  TupleId id;
  return rel_->Insert(Encode(token), &id);
}

Status RelationTokenStore::RemoveExact(TokenView token, bool* found) {
  *found = false;
  if (token.size() != arities_.size()) {
    return WidthMismatch(token.size(), arities_.size());
  }
  TupleId victim;
  bool have = false;
  auto check = [&](TupleId row_id, const Tuple& row) {
    if (have) return Status::OK();
    size_t off = 0;
    for (const TokenSlot& s : token) {
      if (static_cast<uint32_t>(row[off].as_int()) != s.id.page_id ||
          static_cast<uint32_t>(row[off + 1].as_int()) != s.id.slot_id) {
        return Status::OK();
      }
      off += 2;
    }
    victim = row_id;
    have = true;
    return Status::OK();
  };
  if (keyed()) {
    // Narrow the search with the key index: tokens with equal ids carry
    // equal tuples, so the victim (if present) is in the probed set.
    Selection sel;
    Tuple enc = Encode(token);
    for (int col : key_attr_cols_) {
      sel.tests.push_back(
          ConstantTest{col, CompareOp::kEq, enc[static_cast<size_t>(col)]});
    }
    std::vector<std::pair<TupleId, Tuple>> rows;
    PRODB_RETURN_IF_ERROR(rel_->Select(sel, &rows));
    for (const auto& [row_id, row] : rows) {
      PRODB_RETURN_IF_ERROR(check(row_id, row));
    }
  } else {
    PRODB_RETURN_IF_ERROR(rel_->Scan(check));
  }
  if (have) {
    PRODB_RETURN_IF_ERROR(rel_->Delete(victim));
    *found = true;
  }
  return Status::OK();
}

Status RelationTokenStore::Scan(const Visitor& fn) const {
  return rel_->Scan(
      [&](TupleId, const Tuple& row) { return fn(Decode(row)); });
}

Status RelationTokenStore::ScanMatching(const std::vector<Value>& key,
                                        const Visitor& fn) const {
  if (!keyed() || key.size() != key_attr_cols_.size()) return Scan(fn);
  // The equality selection hits the hash index on the first key column
  // (Relation::Select's fast path); remaining columns filter the probe
  // result. Cross-type numeric equality (int 3 vs real 3.0) is honored by
  // Value::Hash / EvalCompare, matching the join semantics.
  Selection sel;
  for (size_t i = 0; i < key.size(); ++i) {
    sel.tests.push_back(
        ConstantTest{key_attr_cols_[i], CompareOp::kEq, key[i]});
  }
  std::vector<std::pair<TupleId, Tuple>> rows;
  PRODB_RETURN_IF_ERROR(rel_->Select(sel, &rows));
  for (const auto& [row_id, row] : rows) {
    (void)row_id;
    PRODB_RETURN_IF_ERROR(fn(Decode(row)));
  }
  return Status::OK();
}

size_t RelationTokenStore::size() const { return rel_->Count(); }

size_t RelationTokenStore::FootprintBytes(
    std::unordered_set<const Tuple*>* counted) const {
  // Rows carry their own copies of the values; no handle is shared.
  (void)counted;
  return rel_->FootprintBytes();
}

}  // namespace prodb

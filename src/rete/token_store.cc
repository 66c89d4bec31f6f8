#include "rete/token_store.h"

#include <algorithm>

#include "rete/join_keys.h"

namespace prodb {

constexpr TupleId ReteToken::kNoTuple;

bool MemoryTokenStore::KeyOf(const ReteToken& token, std::string* out) const {
  out->clear();
  for (const TokenKeyCol& c : key_cols_) {
    if (c.pos >= token.tuples.size() ||
        static_cast<size_t>(c.attr) >= token.tuples[c.pos].arity()) {
      return false;
    }
    AppendKeyValue(token.tuples[c.pos][static_cast<size_t>(c.attr)], out);
  }
  return true;
}

void MemoryTokenStore::IndexAdd(size_t i) {
  std::string key;
  if (KeyOf(tokens_[i], &key)) {
    buckets_[key].push_back(i);
  } else {
    unkeyed_.push_back(i);
  }
}

void MemoryTokenStore::IndexErase(size_t i) {
  std::string key;
  std::vector<size_t>* list;
  std::unordered_map<std::string, std::vector<size_t>>::iterator it;
  if (KeyOf(tokens_[i], &key)) {
    it = buckets_.find(key);
    list = &it->second;
  } else {
    it = buckets_.end();
    list = &unkeyed_;
  }
  auto pos = std::find(list->begin(), list->end(), i);
  if (pos != list->end()) {
    *pos = list->back();
    list->pop_back();
  }
  if (it != buckets_.end() && list->empty()) buckets_.erase(it);
}

void MemoryTokenStore::EraseAt(size_t i) {
  if (keyed()) {
    IndexErase(i);
    size_t last = tokens_.size() - 1;
    if (i != last) {
      IndexErase(last);
      tokens_[i] = std::move(tokens_[last]);
      IndexAdd(i);
    }
    tokens_.pop_back();
    return;
  }
  tokens_[i] = std::move(tokens_.back());
  tokens_.pop_back();
}

Status MemoryTokenStore::Add(const ReteToken& token) {
  tokens_.push_back(token);
  if (keyed()) IndexAdd(tokens_.size() - 1);
  return Status::OK();
}

Status MemoryTokenStore::RemoveExact(const ReteToken& token, bool* found) {
  *found = false;
  std::string key;
  if (keyed() && KeyOf(token, &key)) {
    // A tuple id never changes value (ids are not reused), so tokens with
    // equal id combinations carry equal tuples and land in the same
    // bucket — the probe is complete, no scan fallback needed.
    auto it = buckets_.find(key);
    if (it != buckets_.end()) {
      for (size_t i : it->second) {
        if (tokens_[i].ids == token.ids) {
          EraseAt(i);
          *found = true;
          return Status::OK();
        }
      }
    }
    for (size_t i : unkeyed_) {
      if (tokens_[i].ids == token.ids) {
        EraseAt(i);
        *found = true;
        return Status::OK();
      }
    }
    return Status::OK();
  }
  for (size_t i = 0; i < tokens_.size(); ++i) {
    if (tokens_[i].ids == token.ids) {
      EraseAt(i);
      *found = true;
      return Status::OK();
    }
  }
  return Status::OK();
}

Status MemoryTokenStore::Scan(
    const std::function<Status(const ReteToken&)>& fn) const {
  for (const ReteToken& t : tokens_) {
    PRODB_RETURN_IF_ERROR(fn(t));
  }
  return Status::OK();
}

Status MemoryTokenStore::ScanMatching(
    const std::vector<Value>& key,
    const std::function<Status(const ReteToken&)>& fn) const {
  if (!keyed() || key.size() != key_cols_.size()) return Scan(fn);
  auto it = buckets_.find(EncodeJoinKey(key));
  if (it != buckets_.end()) {
    for (size_t i : it->second) {
      PRODB_RETURN_IF_ERROR(fn(tokens_[i]));
    }
  }
  for (size_t i : unkeyed_) {
    PRODB_RETURN_IF_ERROR(fn(tokens_[i]));
  }
  return Status::OK();
}

size_t MemoryTokenStore::FootprintBytes() const {
  size_t total = sizeof(*this) + tokens_.capacity() * sizeof(ReteToken);
  for (const ReteToken& t : tokens_) {
    total += t.ids.capacity() * sizeof(TupleId);
    for (const Tuple& tup : t.tuples) total += tup.FootprintBytes();
    total += t.binding.capacity() * sizeof(Binding::value_type);
  }
  for (const auto& [key, list] : buckets_) {
    total += key.capacity() + list.capacity() * sizeof(size_t) + 48;
  }
  total += unkeyed_.capacity() * sizeof(size_t);
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

Tuple RelationTokenStore::Encode(const ReteToken& token) const {
  Tuple row;
  auto& vals = row.mutable_values();
  for (size_t p = 0; p < arities_.size(); ++p) {
    TupleId id = p < token.ids.size() ? token.ids[p] : ReteToken::kNoTuple;
    vals.emplace_back(static_cast<int64_t>(id.page_id));
    vals.emplace_back(static_cast<int64_t>(id.slot_id));
  }
  for (size_t p = 0; p < arities_.size(); ++p) {
    for (size_t a = 0; a < arities_[p]; ++a) {
      if (p < token.tuples.size() && a < token.tuples[p].arity()) {
        vals.push_back(token.tuples[p][a]);
      } else {
        vals.emplace_back();
      }
    }
  }
  return row;
}

ReteToken RelationTokenStore::Decode(const Tuple& row) const {
  ReteToken token;
  const size_t n = arities_.size();
  token.ids.assign(n, ReteToken::kNoTuple);
  token.tuples.assign(n, Tuple());
  size_t off = 0;
  for (size_t p = 0; p < n; ++p) {
    token.ids[p].page_id = static_cast<uint32_t>(row[off++].as_int());
    token.ids[p].slot_id = static_cast<uint32_t>(row[off++].as_int());
  }
  for (size_t p = 0; p < n; ++p) {
    std::vector<Value> vals;
    vals.reserve(arities_[p]);
    for (size_t a = 0; a < arities_[p]; ++a) {
      vals.push_back(row[off++]);
    }
    token.tuples[p] = Tuple(std::move(vals));
  }
  return token;
}

Status RelationTokenStore::Add(const ReteToken& token) {
  TupleId id;
  return rel_->Insert(Encode(token), &id);
}

Status RelationTokenStore::RemoveExact(const ReteToken& token, bool* found) {
  *found = false;
  TupleId victim;
  bool have = false;
  auto check = [&](TupleId row_id, const Tuple& row) {
    if (have) return Status::OK();
    size_t off = 0;
    for (size_t p = 0; p < arities_.size(); ++p) {
      TupleId id = p < token.ids.size() ? token.ids[p] : ReteToken::kNoTuple;
      if (static_cast<uint32_t>(row[off].as_int()) != id.page_id ||
          static_cast<uint32_t>(row[off + 1].as_int()) != id.slot_id) {
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

Status RelationTokenStore::Scan(
    const std::function<Status(const ReteToken&)>& fn) const {
  return rel_->Scan([&](TupleId, const Tuple& row) { return fn(Decode(row)); });
}

Status RelationTokenStore::ScanMatching(
    const std::vector<Value>& key,
    const std::function<Status(const ReteToken&)>& fn) const {
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

size_t RelationTokenStore::FootprintBytes() const {
  return rel_->FootprintBytes();
}

}  // namespace prodb

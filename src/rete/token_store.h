#ifndef PRODB_RETE_TOKEN_STORE_H_
#define PRODB_RETE_TOKEN_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "rete/token.h"

namespace prodb {

/// One column of a token-memory equality-join key: the value lives at
/// attribute `attr` of the tuple in slot `pos` of a stored token. The
/// schema is fixed when the store is built — computed once per node by
/// ReteNetwork::BuildRule from the rule's equality variable occurrences
/// (§3.2's "access of the opposite memory" becomes a keyed probe,
/// §4.1.2's indexing idea).
struct TokenKeyCol {
  size_t pos = 0;  // token slot whose tuple supplies the value
  int attr = 0;    // attribute within that tuple
};

/// Storage for the LEFT (or RIGHT) memory of a two-input Rete node. A
/// store holds tokens of one fixed width: a LEFT memory at join level k
/// holds k-slot tokens, a RIGHT memory single WMEs (width 1).
///
/// Two implementations realize the paper's comparison: MemoryTokenStore
/// keeps tokens in process memory (the OPS5 situation, §3.1), while
/// RelationTokenStore keeps them in catalog relations — "the two
/// relations used to store the tokens that correspond to the left and
/// right input of a two-input merge node, LEFT and RIGHT" (§3.2). The
/// relation-backed store pays DBMS costs on every token movement, which
/// benchmark E8 measures.
class TokenStore {
 public:
  /// Visits one stored token; the view is valid only during the call.
  using Visitor = std::function<Status(TokenView)>;

  virtual ~TokenStore() = default;

  /// Stores a copy of `token`; InvalidArgument unless its width is the
  /// store's.
  virtual Status Add(TokenView token) = 0;

  /// Removes one token with exactly `token`'s tuple-id combination.
  /// Returns OK whether or not a match existed; *found reports it.
  virtual Status RemoveExact(TokenView token, bool* found) = 0;

  /// Visits every stored token.
  virtual Status Scan(const Visitor& fn) const = 0;

  /// Visits the tokens whose key columns equal `key` (one Value per key
  /// column, compared with the semantics of EvalCompare(kEq) — int 3
  /// matches real 3.0). This is a necessary-condition filter: every
  /// token that could join on the key columns is visited, possibly with
  /// others whose key merely hashes alike; callers still run the full
  /// join test on visited tokens. Stores built without a key schema
  /// degrade to Scan.
  virtual Status ScanMatching(const std::vector<Value>& key,
                              const Visitor& fn) const = 0;

  /// True when the store maintains a key index (ScanMatching is a probe,
  /// not a scan).
  virtual bool keyed() const = 0;

  virtual size_t size() const = 0;

  /// Approximate bytes held: the store's own structure plus the payload
  /// of each tuple handle not yet in `counted` (which it adds), so a
  /// payload several tokens or stores share is counted once.
  virtual size_t FootprintBytes(
      std::unordered_set<const Tuple*>* counted) const = 0;
};

/// Tokens in process memory (the in-memory Rete of OPS5), filed in
/// buckets by a 64-bit hash of their key values. A bucket holds its
/// tokens' slots in place, `width` per token, so adding, removing (by
/// tuple ids) and probing each cost one bucket lookup. An unkeyed store
/// is one bucket.
///
/// The buckets live in one open-addressed table of 32-byte entries (the
/// key hash and the slot vector), a power of two long and at most 3/4
/// full, probed linearly; removing a bucket shifts the rest of its probe
/// run back, so no tombstones accumulate. Within a bucket, Add appends
/// and RemoveExact moves the bucket's last token into the hole, so a
/// probe visits a key's tokens in that order.
class MemoryTokenStore : public TokenStore {
 public:
  explicit MemoryTokenStore(size_t width,
                            std::vector<TokenKeyCol> key_cols = {});

  Status Add(TokenView token) override;
  Status RemoveExact(TokenView token, bool* found) override;
  Status Scan(const Visitor& fn) const override;
  Status ScanMatching(const std::vector<Value>& key,
                      const Visitor& fn) const override;
  bool keyed() const override { return !key_cols_.empty(); }
  size_t size() const override { return size_; }
  size_t FootprintBytes(
      std::unordered_set<const Tuple*>* counted) const override;

 private:
  // One table entry: the slots of every token filed under key hash
  // `hash`, `width_` each. An entry with no slots is empty.
  struct Bucket {
    uint64_t hash = 0;
    std::vector<TokenSlot> slots;
  };

  uint64_t HashOf(TokenView token) const;
  // The entry a bucket for `hash` starts its probe run at.
  size_t Home(uint64_t hash) const;
  // The entry holding the bucket for `hash`, or the empty entry that
  // ends its probe run. The table must not be empty.
  size_t Probe(uint64_t hash) const;
  // Doubles the table (or makes its first 8 entries) and refiles every
  // bucket.
  void Grow();
  // Empties the bucket at entry `at` and shifts the rest of its probe
  // run back.
  void EraseAt(size_t at);

  size_t width_;
  std::vector<TokenKeyCol> key_cols_;
  std::vector<Bucket> table_;  // empty, or a power of two long
  int shift_ = 64;             // 64 - log2(table_.size())
  size_t buckets_used_ = 0;
  size_t size_ = 0;
};

/// Tokens serialized into a catalog relation.
///
/// Row layout: [pos0_page, pos0_slot, pos1_page, pos1_slot, ...] followed
/// by the concatenated attribute values of each position's tuple. When a
/// key schema is given, the backing relation carries hash indexes on the
/// encoded key columns — §4.1.2's "index the COND relations" applied to
/// LEFT/RIGHT — and ScanMatching routes through Relation::Select's index
/// fast path. Visitors see tokens decoded into fresh handles.
class RelationTokenStore : public TokenStore {
 public:
  /// Creates the backing relation `name` in `catalog`. `arities` gives,
  /// per token slot, the arity of that slot's class (its size is the
  /// store's width). `key_cols` (may be empty) selects the token columns
  /// to index.
  static Status Create(Catalog* catalog, const std::string& name,
                       std::vector<size_t> arities, StorageKind storage,
                       std::unique_ptr<RelationTokenStore>* out,
                       std::vector<TokenKeyCol> key_cols = {});

  Status Add(TokenView token) override;
  Status RemoveExact(TokenView token, bool* found) override;
  Status Scan(const Visitor& fn) const override;
  Status ScanMatching(const std::vector<Value>& key,
                      const Visitor& fn) const override;
  bool keyed() const override { return !key_attr_cols_.empty(); }
  size_t size() const override;
  size_t FootprintBytes(
      std::unordered_set<const Tuple*>* counted) const override;

  Relation* relation() const { return rel_; }

 private:
  RelationTokenStore(Relation* rel, std::vector<size_t> arities,
                     std::vector<int> key_attr_cols)
      : rel_(rel),
        arities_(std::move(arities)),
        key_attr_cols_(std::move(key_attr_cols)) {}

  Tuple Encode(TokenView token) const;
  std::vector<TokenSlot> Decode(const Tuple& row) const;

  Relation* rel_;
  std::vector<size_t> arities_;
  // Encoded-row column index of each key column (indexed in rel_).
  std::vector<int> key_attr_cols_;
};

}  // namespace prodb

#endif  // PRODB_RETE_TOKEN_STORE_H_

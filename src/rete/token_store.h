#ifndef PRODB_RETE_TOKEN_STORE_H_
#define PRODB_RETE_TOKEN_STORE_H_

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/catalog.h"
#include "rete/token.h"

namespace prodb {

/// One column of a token-memory equality-join key: the value lives at
/// `tuples[pos][attr]` of a stored token. The schema is fixed when the
/// store is built — computed once per node by ReteNetwork::BuildRule from
/// the rule's equality variable occurrences (§3.2's "access of the
/// opposite memory" becomes a keyed probe, §4.1.2's indexing idea).
struct TokenKeyCol {
  size_t pos = 0;  // CE slot whose tuple supplies the value
  int attr = 0;    // attribute within that tuple
};

/// Storage for the LEFT (or RIGHT) memory of a two-input Rete node.
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
  virtual ~TokenStore() = default;

  virtual Status Add(const ReteToken& token) = 0;

  /// Removes one token with exactly `token`'s tuple-id combination.
  /// Returns OK whether or not a match existed; *found reports it.
  virtual Status RemoveExact(const ReteToken& token, bool* found) = 0;

  /// Visits every stored token.
  virtual Status Scan(
      const std::function<Status(const ReteToken&)>& fn) const = 0;

  /// Visits the tokens whose key columns equal `key` (one Value per key
  /// column, compared with the semantics of EvalCompare(kEq) — int 3
  /// matches real 3.0). This is a necessary-condition filter: every
  /// token that could join on the key columns is visited, plus any token
  /// whose key could not be derived (defensive fallback); callers still
  /// run the full consistency test on visited tokens. Stores built
  /// without a key schema degrade to Scan.
  virtual Status ScanMatching(
      const std::vector<Value>& key,
      const std::function<Status(const ReteToken&)>& fn) const = 0;

  /// True when the store maintains a key index (ScanMatching is a probe,
  /// not a scan).
  virtual bool keyed() const = 0;

  /// Hint that ~n more tokens are about to be added (one per right
  /// activation of a batch). Stores may pre-size; correctness never
  /// depends on it.
  virtual void ReserveAdditional(size_t n) { (void)n; }

  virtual size_t size() const = 0;
  virtual size_t FootprintBytes() const = 0;
};

/// Tokens in a std::vector (the in-memory Rete of OPS5), with an optional
/// hash map from encoded key to token indices maintained on every
/// add/remove.
class MemoryTokenStore : public TokenStore {
 public:
  MemoryTokenStore() = default;
  explicit MemoryTokenStore(std::vector<TokenKeyCol> key_cols)
      : key_cols_(std::move(key_cols)) {}

  Status Add(const ReteToken& token) override;
  Status RemoveExact(const ReteToken& token, bool* found) override;
  Status Scan(
      const std::function<Status(const ReteToken&)>& fn) const override;
  Status ScanMatching(
      const std::vector<Value>& key,
      const std::function<Status(const ReteToken&)>& fn) const override;
  bool keyed() const override { return !key_cols_.empty(); }
  void ReserveAdditional(size_t n) override {
    const size_t want = tokens_.size() + n;
    if (want <= tokens_.capacity()) return;
    // Never reserve below double the current capacity: an exact
    // `reserve(size + 1)` per one-element batch would defeat the
    // vector's geometric growth and turn token adds quadratic.
    const size_t doubled = tokens_.capacity() * 2;
    tokens_.reserve(want > doubled ? want : doubled);
  }
  size_t size() const override { return tokens_.size(); }
  size_t FootprintBytes() const override;

 private:
  /// Encodes `token`'s key columns; false when a column is not derivable
  /// (missing position / narrow tuple), in which case the token lives in
  /// the unkeyed list that every probe also visits.
  bool KeyOf(const ReteToken& token, std::string* out) const;
  void IndexAdd(size_t i);
  void IndexErase(size_t i);
  /// Swap-erase of tokens_[i], fixing up the moved element's index entry.
  void EraseAt(size_t i);

  std::vector<ReteToken> tokens_;
  std::vector<TokenKeyCol> key_cols_;
  // encoded key -> indices into tokens_ (only when keyed).
  std::unordered_map<std::string, std::vector<size_t>> buckets_;
  // indices of tokens whose key could not be derived.
  std::vector<size_t> unkeyed_;
};

/// Tokens serialized into a catalog relation.
///
/// Row layout: [pos0_page, pos0_slot, pos1_page, pos1_slot, ...] followed
/// by the concatenated attribute values of each position's tuple. The
/// binding is not stored; it is recomputed on scan by the owning node
/// (it is derivable from the tuples). When a key schema is given, the
/// backing relation carries hash indexes on the encoded key columns —
/// §4.1.2's "index the COND relations" applied to LEFT/RIGHT — and
/// ScanMatching routes through Relation::Select's index fast path.
class RelationTokenStore : public TokenStore {
 public:
  /// Creates the backing relation `name` in `catalog`. `positions` gives,
  /// per CE slot of the rule, the arity of that slot's class (0 for
  /// negated slots, which never carry tuples). `key_cols` (may be empty)
  /// selects the token columns to index.
  static Status Create(Catalog* catalog, const std::string& name,
                       std::vector<size_t> arities, StorageKind storage,
                       std::unique_ptr<RelationTokenStore>* out,
                       std::vector<TokenKeyCol> key_cols = {});

  Status Add(const ReteToken& token) override;
  Status RemoveExact(const ReteToken& token, bool* found) override;
  Status Scan(
      const std::function<Status(const ReteToken&)>& fn) const override;
  Status ScanMatching(
      const std::vector<Value>& key,
      const std::function<Status(const ReteToken&)>& fn) const override;
  bool keyed() const override { return !key_attr_cols_.empty(); }
  size_t size() const override;
  size_t FootprintBytes() const override;

  Relation* relation() const { return rel_; }

 private:
  RelationTokenStore(Relation* rel, std::vector<size_t> arities,
                     std::vector<int> key_attr_cols)
      : rel_(rel),
        arities_(std::move(arities)),
        key_attr_cols_(std::move(key_attr_cols)) {}

  Tuple Encode(const ReteToken& token) const;
  ReteToken Decode(const Tuple& row) const;

  Relation* rel_;
  std::vector<size_t> arities_;
  // Encoded-row column index of each key column (indexed in rel_).
  std::vector<int> key_attr_cols_;
};

}  // namespace prodb

#endif  // PRODB_RETE_TOKEN_STORE_H_

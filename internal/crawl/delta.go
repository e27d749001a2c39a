package crawl

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/internal/fragment"
	"repro/internal/psj"
	"repro/internal/relation"
)

// Errors returned by delta derivation and coalescing.
var (
	ErrPinArity     = errors.New("crawl: fragment identifier arity does not match selection attributes")
	ErrPinParam     = errors.New("crawl: query parameter not pinned by any selection attribute")
	ErrCoalesce     = errors.New("crawl: conflicting changes for fragment")
	ErrCoalesceSpec = errors.New("crawl: coalesced deltas disagree on selection attributes")
)

// ChangeOp classifies one fragment change within a Delta.
type ChangeOp uint8

// The three fragment maintenance operations.
const (
	OpInsertFragment ChangeOp = iota + 1
	OpRemoveFragment
	OpUpdateFragment
)

// String names the operation.
func (op ChangeOp) String() string {
	switch op {
	case OpInsertFragment:
		return "insert"
	case OpRemoveFragment:
		return "remove"
	case OpUpdateFragment:
		return "update"
	}
	return fmt.Sprintf("ChangeOp(%d)", uint8(op))
}

// FragmentChange is one fragment's worth of index maintenance: the fragment
// to touch and, for inserts and updates, its recomputed keyword statistics.
type FragmentChange struct {
	Op         ChangeOp
	ID         fragment.ID
	TermCounts map[string]int64 // nil for removals
	TotalTerms int64            // 0 for removals
}

// Delta is a batch of fragment changes derived from database updates — the
// incremental counterpart of Output. fragindex.LiveIndex.Apply folds a
// Delta into the next published snapshot in one atomic swap.
type Delta struct {
	// SelAttrs names the selection attribute columns the change IDs are
	// tuples over, in WHERE order; empty skips the spec check on apply.
	SelAttrs []string
	Changes  []FragmentChange
}

// Coalesce folds a sequence of deltas — in application order — into one
// delta holding at most one change per fragment identifier, so a batched
// apply pays one publish (and one pass over each touched fragment) for the
// whole sequence. The folding rules preserve the net effect of applying
// the deltas one by one:
//
//	insert + update → insert with the update's statistics
//	insert + remove → nothing (the remove cancels the insert)
//	update + update → the last update
//	update + remove → remove
//	remove + insert → update (the fragment existed before the batch)
//
// Sequences that could not have applied cleanly one by one — a second
// insert of a live fragment, an update or remove of a fragment the batch
// already removed — return ErrCoalesce rather than silently masking the
// conflict. Deltas with non-empty SelAttrs must agree; the folded delta
// carries the first non-empty set.
//
// Surviving changes keep the order their identifiers were first touched
// in; a cancelled insert that is later re-inserted keeps its original
// position (fragment changes for distinct identifiers commute).
func Coalesce(ds []Delta) (Delta, error) {
	var out Delta
	byKey := make(map[string]int) // identifier key -> index into out.Changes
	for _, d := range ds {
		if len(d.SelAttrs) > 0 {
			if out.SelAttrs == nil {
				out.SelAttrs = append([]string(nil), d.SelAttrs...)
			} else if !slices.Equal(out.SelAttrs, d.SelAttrs) {
				return Delta{}, fmt.Errorf("%w: %v vs %v", ErrCoalesceSpec, out.SelAttrs, d.SelAttrs)
			}
		}
		for _, ch := range d.Changes {
			key := ch.ID.Key()
			at, ok := byKey[key]
			if !ok {
				byKey[key] = len(out.Changes)
				out.Changes = append(out.Changes, ch)
				continue
			}
			prev := &out.Changes[at]
			switch {
			case prev.Op == OpInsertFragment && ch.Op == OpUpdateFragment:
				prev.TermCounts, prev.TotalTerms = ch.TermCounts, ch.TotalTerms
			case prev.Op == OpInsertFragment && ch.Op == OpRemoveFragment:
				// The slot stays in byKey as a cancellation marker: the
				// fragment is absent again, so only a re-insert may follow.
				prev.Op, prev.TermCounts, prev.TotalTerms = opCancelled, nil, 0
			case prev.Op == opCancelled && ch.Op == OpInsertFragment:
				prev.Op, prev.TermCounts, prev.TotalTerms = OpInsertFragment, ch.TermCounts, ch.TotalTerms
			case prev.Op == OpUpdateFragment && ch.Op == OpUpdateFragment:
				prev.TermCounts, prev.TotalTerms = ch.TermCounts, ch.TotalTerms
			case prev.Op == OpUpdateFragment && ch.Op == OpRemoveFragment:
				prev.Op, prev.TermCounts, prev.TotalTerms = OpRemoveFragment, nil, 0
			case prev.Op == OpRemoveFragment && ch.Op == OpInsertFragment:
				prev.Op, prev.TermCounts, prev.TotalTerms = OpUpdateFragment, ch.TermCounts, ch.TotalTerms
			default:
				prevDesc := prev.Op.String()
				if prev.Op == opCancelled {
					prevDesc = "cancelled insert"
				}
				return Delta{}, fmt.Errorf("%w %s: %s after %s", ErrCoalesce, ch.ID, ch.Op, prevDesc)
			}
		}
	}
	// Drop cancelled entries, preserving order.
	kept := out.Changes[:0]
	for _, ch := range out.Changes {
		if ch.Op != opCancelled {
			kept = append(kept, ch)
		}
	}
	out.Changes = kept
	if len(out.Changes) == 0 {
		out.Changes = nil
	}
	return out, nil
}

// opCancelled marks a change slot neutralized during coalescing (an insert
// annihilated by a later remove). The slot keeps its byKey entry so a
// later update/remove of the same identifier is still recognized as a
// conflict — the fragment is absent mid-batch, exactly as a sequential
// apply would observe. Never present in a returned Delta.
const opCancelled ChangeOp = 0

// PinParams returns the parameter assignment that restricts the bound query
// to exactly one fragment's partition: every condition over a selection
// attribute receives that attribute's value from the fragment identifier.
// With Dash's comparison set (=, >=, <=) the pinned evaluation selects
// precisely the rows whose selection values equal the identifier's.
func PinParams(b *psj.Bound, id fragment.ID) (map[string]relation.Value, error) {
	if len(id) != len(b.SelAttrs) {
		return nil, fmt.Errorf("%w: id %v over attrs %v", ErrPinArity, id, b.SelAttrs)
	}
	params := make(map[string]relation.Value, len(b.Conds))
	for _, c := range b.Conds {
		for i, col := range b.SelAttrs {
			if c.Attr.Col == col {
				params[c.Param] = id[i]
			}
		}
	}
	for _, p := range b.Query.Params() {
		if _, ok := params[p]; !ok {
			return nil, fmt.Errorf("%w: $%s", ErrPinParam, p)
		}
	}
	return params, nil
}

// RecrawlFragment recomputes one fragment's keyword statistics by executing
// the application query pinned to the fragment's partition — re-crawling
// only the rows that can contribute to this fragment, not the whole
// database. exists is false when the partition currently selects no rows
// (the fragment no longer exists). The counts match what a full crawl
// (Reference or the MR algorithms) would derive for the same fragment.
// psj.Bound.Execute looks the partition's rows up through the database's
// indexes, so the cost follows the partition's size, not the tables'.
func RecrawlFragment(db *relation.Database, b *psj.Bound, id fragment.ID) (counts map[string]int64, total int64, exists bool, err error) {
	params, err := PinParams(b, id)
	if err != nil {
		return nil, 0, false, err
	}
	tbl, err := b.Execute(db, params)
	if err != nil {
		return nil, 0, false, err
	}
	if tbl.Len() == 0 {
		return nil, 0, false, nil
	}
	// Execute projects to the application's projection attributes — exactly
	// the values a full crawl counts tokens over (fragment.Derive's projIdx).
	acc := make(map[string]int)
	for _, row := range tbl.Rows {
		for _, v := range row {
			total += int64(fragment.CountTokens(v, acc))
		}
	}
	counts = make(map[string]int64, len(acc))
	for kw, n := range acc {
		counts[kw] = int64(n)
	}
	return counts, total, true, nil
}

// orBackground tolerates a nil context at the API boundary so a forgotten
// ctx degrades to "not cancellable" instead of a panic between partitions.
func orBackground(ctx context.Context) context.Context {
	if ctx == nil {
		return context.Background()
	}
	return ctx
}

// DeriveDelta re-crawls the partitions of the candidate fragment
// identifiers (typically: every fragment whose underlying rows changed,
// plus any identifiers newly introduced by inserted rows) and classifies
// each against the serving index via have, which reports whether a live
// fragment with that identifier currently exists. Identifiers whose
// partition is empty and unknown to the index are dropped as no-ops.
// Derivation re-executes one query per identifier, so the ctx is checked
// between partitions; a cancellation returns ctx.Err() with no delta.
func DeriveDelta(ctx context.Context, db *relation.Database, b *psj.Bound, ids []fragment.ID, have func(fragment.ID) bool) (Delta, error) {
	ctx = orBackground(ctx)
	d := Delta{SelAttrs: append([]string(nil), b.SelAttrs...)}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return Delta{}, err
		}
		counts, total, exists, err := RecrawlFragment(db, b, id)
		if err != nil {
			return Delta{}, err
		}
		known := have(id)
		switch {
		case exists && known:
			d.Changes = append(d.Changes, FragmentChange{
				Op: OpUpdateFragment, ID: id, TermCounts: counts, TotalTerms: total,
			})
		case exists:
			d.Changes = append(d.Changes, FragmentChange{
				Op: OpInsertFragment, ID: id, TermCounts: counts, TotalTerms: total,
			})
		case known:
			d.Changes = append(d.Changes, FragmentChange{Op: OpRemoveFragment, ID: id})
		}
	}
	return d, nil
}

package crawl

import (
	"context"
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/fragment"
	"repro/internal/mapreduce"
	"repro/internal/psj"
	"repro/internal/relation"
)

// Stepwise runs the stepwise crawling and indexing algorithm (paper §V-A):
//
//	SW-Jn:  one MR join job per join-tree node, carrying all columns —
//	        including the projection attributes — through every join;
//	SW-Grp: one MR job grouping joined records by selection-attribute
//	        values into db-page fragments;
//	SW-Idx: one MR job building the inverted fragment index, treating each
//	        fragment as a document.
func Stepwise(ctx context.Context, db *relation.Database, b *psj.Bound, opts Options) (*Output, error) {
	// ---- Phase SW-Jn ----
	joinMetrics := mapreduce.Metrics{Job: "SW-Jn"}
	rows, err := stepwiseJoin(ctx, db, b, b.Query.From, opts, &joinMetrics)
	if err != nil {
		return nil, err
	}
	fullSchema := b.NodeSchema(b.Query.From)

	projIdx, err := columnIndices(fullSchema, b.Projections)
	if err != nil {
		return nil, err
	}
	selIdx, err := columnIndices(fullSchema, b.SelAttrs)
	if err != nil {
		return nil, err
	}

	// ---- Phase SW-Grp: group records into fragments ----
	grpJob := mapreduce.Job{
		Name:  "SW-Grp",
		Input: rows,
		Map: func(in mapreduce.KV, emit mapreduce.Emit) error {
			row, _, err := relation.DecodeRow(in.Value)
			if err != nil {
				return err
			}
			id := make(fragment.ID, len(selIdx))
			for i, j := range selIdx {
				if row[j].IsNull() {
					// A NULL selection attribute satisfies no
					// comparison, so the record is in no db-page.
					return nil
				}
				id[i] = row[j]
			}
			projected := make(relation.Row, len(projIdx))
			for i, j := range projIdx {
				projected[i] = row[j]
			}
			emit(mapreduce.KV{Key: id.Key(), Value: relation.EncodeRow(projected)})
			return nil
		},
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			// Concatenate the fragment's records into one blob; this
			// materialization is the point of the stepwise approach
			// (and its cost).
			n := 0
			for _, v := range values {
				n += len(v)
			}
			blob := make([]byte, 0, n)
			for _, v := range values {
				blob = append(blob, v...)
			}
			emit(mapreduce.KV{Key: key, Value: blob})
			return nil
		},
	}
	opts.apply(&grpJob)
	grpRes, err := mapreduce.Run(ctx, grpJob)
	if err != nil {
		return nil, err
	}
	grpMetrics := grpRes.Metrics
	grpMetrics.Job = "SW-Grp"

	// ---- Phase SW-Idx: index fragments against keywords ----
	idxJob := mapreduce.Job{
		Name:  "SW-Idx",
		Input: grpRes.Output,
		Map: func(in mapreduce.KV, emit mapreduce.Emit) error {
			counts := make(map[string]int)
			total := 0
			rest := in.Value
			for len(rest) > 0 {
				row, used, err := relation.DecodeRow(rest)
				if err != nil {
					return err
				}
				rest = rest[used:]
				for _, v := range row {
					total += fragment.CountTokens(v, counts)
				}
			}
			for kw, n := range counts {
				emit(mapreduce.KV{
					Key:   keywordKeyPrefix + kw,
					Value: appendPosting(nil, in.Key, int64(n)),
				})
			}
			emit(mapreduce.KV{
				Key:   sizeKeyPrefix + in.Key,
				Value: binary.AppendUvarint(nil, uint64(total)),
			})
			return nil
		},
		Combine: indexReducer,
		Reduce:  indexReducer,
	}
	opts.apply(&idxJob)
	idxRes, err := mapreduce.Run(ctx, idxJob)
	if err != nil {
		return nil, err
	}
	idxMetrics := idxRes.Metrics
	idxMetrics.Job = "SW-Idx"

	phases := []Phase{
		{Name: "SW-Jn", Metrics: joinMetrics},
		{Name: "SW-Grp", Metrics: grpMetrics},
		{Name: "SW-Idx", Metrics: idxMetrics},
	}
	return assembleOutput(AlgStepwise, b.SelAttrs, idxRes.Output, phases)
}

// stepwiseJoin evaluates a join-tree node with one MR job per internal node,
// returning the node's rows as untagged pairs.
func stepwiseJoin(ctx context.Context, db *relation.Database, b *psj.Bound,
	node *psj.JoinExpr, opts Options, metrics *mapreduce.Metrics) ([]mapreduce.KV, error) {
	if node.IsLeaf() {
		t, err := db.Table(node.Relation)
		if err != nil {
			return nil, err
		}
		return tableToKVs(t), nil
	}
	left, err := stepwiseJoin(ctx, db, b, node.Left, opts, metrics)
	if err != nil {
		return nil, err
	}
	right, err := stepwiseJoin(ctx, db, b, node.Right, opts, metrics)
	if err != nil {
		return nil, err
	}
	ls, rs := b.NodeSchema(node.Left), b.NodeSchema(node.Right)
	name := fmt.Sprintf("SW-Jn(%s)", strings.Join(b.NodeOn(node), ","))
	res, err := mrJoin(ctx, name, left, right, ls, rs, b.NodeOn(node), node.Kind, opts)
	if err != nil {
		return nil, err
	}
	metrics.Add(res.Metrics)
	return res.Output, nil
}

// mrJoin is the MR equi-join shared by the stepwise join phase and the
// integrated algorithm's aggregate join: left and right rows shuffle on
// their join-column values; each reduce group cross-products the sides.
// Left rows whose join key contains NULL shuffle under a private key so they
// match nothing (SQL semantics) yet still surface for left-outer joins.
func mrJoin(ctx context.Context, name string, left, right []mapreduce.KV,
	ls, rs *relation.Schema, on []string, kind relation.JoinKind,
	opts Options) (*mapreduce.Result, error) {

	leftIdx, err := columnIndices(ls, on)
	if err != nil {
		return nil, err
	}
	rightIdx, err := columnIndices(rs, on)
	if err != nil {
		return nil, err
	}
	// Right columns that survive the join.
	rightKeep := make([]int, 0, len(rs.Columns))
	for j := range rs.Columns {
		isJoin := false
		for _, ri := range rightIdx {
			if ri == j {
				isJoin = true
				break
			}
		}
		if !isJoin {
			rightKeep = append(rightKeep, j)
		}
	}

	input := make([]mapreduce.KV, 0, len(left)+len(right))
	input = append(input, tagValues(left, tagLeft)...)
	input = append(input, tagValues(right, tagRight)...)

	job := mapreduce.Job{
		Name:  name,
		Input: input,
		Map: func(in mapreduce.KV, emit mapreduce.Emit) error {
			tag := in.Value[0]
			row, _, err := relation.DecodeRow(in.Value[1:])
			if err != nil {
				return err
			}
			var idx []int
			if tag == tagLeft {
				idx = leftIdx
			} else {
				idx = rightIdx
			}
			buf := make([]relation.Value, len(idx))
			key, ok := joinKeyFor(row, idx, buf)
			if !ok {
				if tag == tagLeft && kind == relation.JoinLeftOuter {
					// Never matches, but must survive null-extended.
					emit(mapreduce.KV{
						Key:   nullJoinKeyPrefix + string(in.Value[1:]),
						Value: in.Value,
					})
				}
				return nil
			}
			emit(mapreduce.KV{Key: key, Value: in.Value})
			return nil
		},
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			var lrows, rrows [][]byte
			for _, v := range values {
				if v[0] == tagLeft {
					lrows = append(lrows, v[1:])
				} else {
					rrows = append(rrows, v[1:])
				}
			}
			for _, lv := range lrows {
				lrow, _, err := relation.DecodeRow(lv)
				if err != nil {
					return err
				}
				if len(rrows) == 0 {
					if kind == relation.JoinLeftOuter {
						merged := make(relation.Row, 0, len(lrow)+len(rightKeep))
						merged = append(merged, lrow...)
						for range rightKeep {
							merged = append(merged, relation.Null())
						}
						emit(mapreduce.KV{Value: relation.EncodeRow(merged)})
					}
					continue
				}
				for _, rv := range rrows {
					rrow, _, err := relation.DecodeRow(rv)
					if err != nil {
						return err
					}
					merged := make(relation.Row, 0, len(lrow)+len(rightKeep))
					merged = append(merged, lrow...)
					for _, j := range rightKeep {
						merged = append(merged, rrow[j])
					}
					emit(mapreduce.KV{Value: relation.EncodeRow(merged)})
				}
			}
			return nil
		},
	}
	opts.apply(&job)
	return mapreduce.Run(ctx, job)
}

// indexReducer is the shared final reducer and combiner of both
// algorithms: keyword keys merge per-fragment counts, in first-seen order
// (assembleOutput sorts each list once); size keys sum term counts.
func indexReducer(key string, values [][]byte, emit mapreduce.Emit) error {
	switch key[0] {
	case keywordKeyPrefix[0]:
		at := make(map[string]int)
		var merged []Posting
		for _, v := range values {
			if err := decodePostings(v, func(fragKey []byte, tf int64) {
				if i, ok := at[string(fragKey)]; ok {
					merged[i].TF += tf
					return
				}
				k := string(fragKey)
				at[k] = len(merged)
				merged = append(merged, Posting{FragKey: k, TF: tf})
			}); err != nil {
				return err
			}
		}
		var blob []byte
		for _, p := range merged {
			blob = appendPosting(blob, p.FragKey, p.TF)
		}
		emit(mapreduce.KV{Key: key, Value: blob})
	case sizeKeyPrefix[0]:
		var total uint64
		for _, v := range values {
			n, used := binary.Uvarint(v)
			if used <= 0 {
				return ErrCorruptPosting
			}
			total += n
		}
		emit(mapreduce.KV{Key: key, Value: binary.AppendUvarint(nil, total)})
	default:
		return fmt.Errorf("crawl: internal: unexpected reduce key %q", key)
	}
	return nil
}

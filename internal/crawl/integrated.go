package crawl

import (
	"context"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/fragment"
	"repro/internal/mapreduce"
	"repro/internal/psj"
	"repro/internal/relation"
)

// thetaPrefix names the per-relation record-count column in aggregate rows.
const thetaPrefix = "θ_"

// Integrated runs the integrated crawling and indexing algorithm (paper
// §V-B). Instead of dragging projection attributes through every join, it:
//
//	INT-Jn:   computes, per operand relation, the aggregate
//	          (cᵢ, jᵢ) G count(*) as θᵢ — only selection attributes, join
//	          attributes, and a count — and joins these narrow aggregates
//	          over the query's join tree, yielding R: every fragment's
//	          join composition;
//	INT-Ext:  joins each base relation with R on (cᵢ, jᵢ) to extract
//	          keywords, scaling each record's counts by the replication
//	          factor Θᵢ = (Π θx)/θᵢ — how many joined rows the record
//	          appears in;
//	INT-Cnsd: consolidates per-keyword counts per fragment and sorts each
//	          inverted list (once, as the output is assembled).
func Integrated(ctx context.Context, db *relation.Database, b *psj.Bound, opts Options) (*Output, error) {
	jnMetrics := mapreduce.Metrics{Job: "INT-Jn"}

	// ---- Phase INT-Jn step 1: per-relation aggregates ----
	aggSchemas := make(map[string]*relation.Schema, len(b.Leaves))
	aggRows := make(map[string][]mapreduce.KV, len(b.Leaves))
	for _, li := range b.Leaves {
		schema, rows, err := aggregateRelation(ctx, db, li, opts, &jnMetrics)
		if err != nil {
			return nil, err
		}
		aggSchemas[li.Relation] = schema
		aggRows[li.Relation] = rows
	}

	// ---- Phase INT-Jn step 2: join the aggregates over the tree ----
	rKVs, rSchema, err := joinAggregates(ctx, b, b.Query.From, aggSchemas, aggRows, opts, &jnMetrics)
	if err != nil {
		return nil, err
	}

	// Locate the global selection attributes and every θ column in R.
	globalSelIdx, err := columnIndices(rSchema, b.SelAttrs)
	if err != nil {
		return nil, err
	}
	thetaIdx := make([]int, len(b.Leaves))
	for i, li := range b.Leaves {
		thetaIdx[i], err = thetaIndex(rSchema, li.Relation)
		if err != nil {
			return nil, err
		}
	}

	// ---- Phase INT-Ext: keyword extraction with multiplicities ----
	extMetrics := mapreduce.Metrics{Job: "INT-Ext"}
	var extOutput []mapreduce.KV
	for i, li := range b.Leaves {
		if len(li.ProjAttrs) == 0 {
			continue // relation contributes no keywords
		}
		res, err := extractRelation(ctx, db, b, li, i, rKVs, rSchema, globalSelIdx, thetaIdx, opts)
		if err != nil {
			return nil, err
		}
		extMetrics.Add(res.Metrics)
		extOutput = append(extOutput, res.Output...)
	}

	// ---- Phase INT-Cnsd: consolidate (assembleOutput sorts) ----
	cnsdJob := mapreduce.Job{
		Name:  "INT-Cnsd",
		Input: extOutput,
		Map: func(in mapreduce.KV, emit mapreduce.Emit) error {
			emit(in)
			return nil
		},
		Combine: indexReducer,
		Reduce:  indexReducer,
	}
	opts.apply(&cnsdJob)
	cnsdRes, err := mapreduce.Run(ctx, cnsdJob)
	if err != nil {
		return nil, err
	}
	cnsdMetrics := cnsdRes.Metrics
	cnsdMetrics.Job = "INT-Cnsd"

	phases := []Phase{
		{Name: "INT-Jn", Metrics: jnMetrics},
		{Name: "INT-Ext", Metrics: extMetrics},
		{Name: "INT-Cnsd", Metrics: cnsdMetrics},
	}
	return assembleOutput(AlgIntegrated, b.SelAttrs, cnsdRes.Output, phases)
}

// leafKeyCols returns the columns a relation is aggregated and re-joined on:
// its selection attributes followed by its join attributes (deduplicated —
// an attribute can be both, like custkey in Q2).
func leafKeyCols(li psj.LeafInfo) []string {
	out := make([]string, 0, len(li.SelAttrs)+len(li.JoinAttrs))
	seen := make(map[string]bool, cap(out))
	for _, c := range li.SelAttrs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	for _, c := range li.JoinAttrs {
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// aggregateRelation runs the aggregate query of §V-B step (1) as one MR job:
// group relation records by (cᵢ, jᵢ) and count them. Records whose selection
// attributes contain NULL belong to no db-page and are skipped.
func aggregateRelation(ctx context.Context, db *relation.Database, li psj.LeafInfo,
	opts Options, metrics *mapreduce.Metrics) (*relation.Schema, []mapreduce.KV, error) {

	t, err := db.Table(li.Relation)
	if err != nil {
		return nil, nil, err
	}
	keyCols := leafKeyCols(li)
	keyIdx, err := columnIndices(t.Schema, keyCols)
	if err != nil {
		return nil, nil, err
	}
	selIdx, err := columnIndices(t.Schema, li.SelAttrs)
	if err != nil {
		return nil, nil, err
	}

	cols := make([]relation.Column, 0, len(keyCols)+1)
	for _, c := range keyCols {
		j := t.Schema.ColumnIndex(c)
		cols = append(cols, t.Schema.Columns[j])
	}
	cols = append(cols, relation.Column{Name: thetaPrefix + li.Relation, Kind: relation.KindInt})
	schema, err := relation.NewSchema("agg:"+li.Relation, cols...)
	if err != nil {
		return nil, nil, err
	}

	sumReducer := func(key string, values [][]byte, emit mapreduce.Emit) error {
		var total uint64
		for _, v := range values {
			n, used := binary.Uvarint(v)
			if used <= 0 {
				return ErrCorruptPosting
			}
			total += n
		}
		emit(mapreduce.KV{Key: key, Value: binary.AppendUvarint(nil, total)})
		return nil
	}
	job := mapreduce.Job{
		Name:  "INT-Jn(agg " + li.Relation + ")",
		Input: tableToKVs(t),
		Map: func(in mapreduce.KV, emit mapreduce.Emit) error {
			row, _, err := relation.DecodeRow(in.Value)
			if err != nil {
				return err
			}
			for _, j := range selIdx {
				if row[j].IsNull() {
					return nil
				}
			}
			vals := make([]relation.Value, len(keyIdx))
			for i, j := range keyIdx {
				vals[i] = row[j]
			}
			emit(mapreduce.KV{Key: relation.Key(vals), Value: binary.AppendUvarint(nil, 1)})
			return nil
		},
		Combine: sumReducer,
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			var out []mapreduce.KV
			collect := func(kv mapreduce.KV) { out = append(out, kv) }
			if err := sumReducer(key, values, collect); err != nil {
				return err
			}
			for _, kv := range out {
				vals, err := relation.DecodeKey(kv.Key)
				if err != nil {
					return err
				}
				theta, used := binary.Uvarint(kv.Value)
				if used <= 0 {
					return ErrCorruptPosting
				}
				row := make(relation.Row, 0, len(vals)+1)
				row = append(row, vals...)
				row = append(row, relation.Int(int64(theta)))
				emit(mapreduce.KV{Value: relation.EncodeRow(row)})
			}
			return nil
		},
	}
	opts.apply(&job)
	res, err := mapreduce.Run(ctx, job)
	if err != nil {
		return nil, nil, err
	}
	metrics.Add(res.Metrics)
	return schema, res.Output, nil
}

// joinAggregates joins the per-relation aggregates over the query's join
// tree, producing R (§V-B): one row per distinct combination of selection
// and join attribute values, with every relation's θ.
func joinAggregates(ctx context.Context, b *psj.Bound, node *psj.JoinExpr,
	schemas map[string]*relation.Schema, rows map[string][]mapreduce.KV,
	opts Options, metrics *mapreduce.Metrics) ([]mapreduce.KV, *relation.Schema, error) {

	if node.IsLeaf() {
		return rows[node.Relation], schemas[node.Relation], nil
	}
	left, ls, err := joinAggregates(ctx, b, node.Left, schemas, rows, opts, metrics)
	if err != nil {
		return nil, nil, err
	}
	right, rs, err := joinAggregates(ctx, b, node.Right, schemas, rows, opts, metrics)
	if err != nil {
		return nil, nil, err
	}
	on := b.NodeOn(node)
	res, err := mrJoin(ctx, "INT-Jn(join)", left, right, ls, rs, on, node.Kind, opts)
	if err != nil {
		return nil, nil, err
	}
	metrics.Add(res.Metrics)
	schema, err := mergeJoinSchema(ls, rs, on)
	if err != nil {
		return nil, nil, err
	}
	return res.Output, schema, nil
}

// mergeJoinSchema mirrors the column layout mrJoin produces: left columns
// then right columns minus the join columns.
func mergeJoinSchema(ls, rs *relation.Schema, on []string) (*relation.Schema, error) {
	cols := make([]relation.Column, 0, len(ls.Columns)+len(rs.Columns))
	cols = append(cols, ls.Columns...)
	for _, c := range rs.Columns {
		isJoin := false
		for _, o := range on {
			if c.Name == o {
				isJoin = true
				break
			}
		}
		if !isJoin {
			cols = append(cols, c)
		}
	}
	return relation.NewSchema(ls.Name+"⨝"+rs.Name, cols...)
}

// thetaIndex locates a relation's θ column in R.
func thetaIndex(schema *relation.Schema, rel string) (int, error) {
	j := schema.ColumnIndex(thetaPrefix + rel)
	if j < 0 {
		return 0, fmt.Errorf("crawl: internal: θ column for %s missing from %s", rel, schema.Name)
	}
	return j, nil
}

// extractRelation runs one relation's INT-Ext job (§V-B step 2): a tagged
// join of R rows ('G') with the relation's records ('D') on (cᵢ, jᵢ). Every
// record's keyword counts are multiplied by Θᵢ = (Π θx)/θᵢ, the number of
// full join rows it is replicated into.
func extractRelation(ctx context.Context, db *relation.Database, b *psj.Bound,
	li psj.LeafInfo, leafPos int, rKVs []mapreduce.KV, rSchema *relation.Schema,
	globalSelIdx, thetaIdx []int, opts Options) (*mapreduce.Result, error) {

	t, err := db.Table(li.Relation)
	if err != nil {
		return nil, err
	}
	keyCols := leafKeyCols(li)
	keyIdxR, err := columnIndices(rSchema, keyCols)
	if err != nil {
		return nil, err
	}
	keyIdxD, err := columnIndices(t.Schema, keyCols)
	if err != nil {
		return nil, err
	}
	projIdx, err := columnIndices(t.Schema, li.ProjAttrs)
	if err != nil {
		return nil, err
	}
	selIdxD, err := columnIndices(t.Schema, li.SelAttrs)
	if err != nil {
		return nil, err
	}

	input := make([]mapreduce.KV, 0, len(rKVs)+t.Len())
	input = append(input, tagValues(rKVs, tagLeft)...)           // 'L' = R rows (group info)
	input = append(input, tagValues(tableToKVs(t), tagRight)...) // 'R' = data records

	job := mapreduce.Job{
		Name:  "INT-Ext(" + li.Relation + ")",
		Input: input,
		Map: func(in mapreduce.KV, emit mapreduce.Emit) error {
			tag := in.Value[0]
			row, _, err := relation.DecodeRow(in.Value[1:])
			if err != nil {
				return err
			}
			if tag == tagLeft {
				// R row: precompute the fragment key and Θᵢ.
				id := make(fragment.ID, len(globalSelIdx))
				for i, j := range globalSelIdx {
					if row[j].IsNull() {
						return nil // fragment excluded (NULL selection value)
					}
					id[i] = row[j]
				}
				prod := int64(1)
				for _, j := range thetaIdx {
					if !row[j].IsNull() {
						prod *= row[j].AsInt()
					}
				}
				self := int64(1)
				if v := row[thetaIdx[leafPos]]; !v.IsNull() {
					self = v.AsInt()
				}
				thetaI := prod / self
				keyVals := make([]relation.Value, len(keyIdxR))
				for i, j := range keyIdxR {
					keyVals[i] = row[j]
				}
				fragKey := id.Key()
				value := make([]byte, 0, 1+binary.MaxVarintLen64+len(fragKey))
				value = append(value, tagLeft)
				value = binary.AppendUvarint(value, uint64(thetaI))
				value = append(value, fragKey...)
				emit(mapreduce.KV{Key: relation.Key(keyVals), Value: value})
				return nil
			}
			// Data record: skip NULL selection attributes (no db-page).
			for _, j := range selIdxD {
				if row[j].IsNull() {
					return nil
				}
			}
			keyVals := make([]relation.Value, len(keyIdxD))
			for i, j := range keyIdxD {
				keyVals[i] = row[j]
			}
			emit(mapreduce.KV{Key: relation.Key(keyVals), Value: in.Value})
			return nil
		},
		Reduce: func(key string, values [][]byte, emit mapreduce.Emit) error {
			type group struct {
				fragKey string
				theta   int64
			}
			var groups []group
			var records [][]byte
			for _, v := range values {
				if v[0] == tagLeft {
					theta, used := binary.Uvarint(v[1:])
					if used <= 0 {
						return ErrCorruptPosting
					}
					groups = append(groups, group{fragKey: string(v[1+used:]), theta: int64(theta)})
				} else {
					records = append(records, v[1:])
				}
			}
			if len(groups) == 0 || len(records) == 0 {
				return nil
			}
			// Aggregate the whole reduce group before emitting: all
			// records here share (cᵢ, jᵢ), so their keyword counts can
			// be pooled, and per-keyword postings across groups packed
			// into one pair. This in-reducer combining is what keeps
			// the extraction phase's shuffle small — the point of the
			// integrated algorithm.
			counts := make(map[string]int64)
			var total int64
			for _, rec := range records {
				row, _, err := relation.DecodeRow(rec)
				if err != nil {
					return err
				}
				perRec := make(map[string]int)
				n := 0
				for _, j := range projIdx {
					n += fragment.CountTokens(row[j], perRec)
				}
				total += int64(n)
				for kw, c := range perRec {
					counts[kw] += int64(c)
				}
			}
			// Distinct R rows can map to the same fragment (they differ
			// only in join-attribute values); pool their multiplicities
			// so each fragment appears once per emitted blob.
			fragTheta := make(map[string]int64, len(groups))
			fragOrder := make([]string, 0, len(groups))
			for _, g := range groups {
				if _, ok := fragTheta[g.fragKey]; !ok {
					fragOrder = append(fragOrder, g.fragKey)
				}
				fragTheta[g.fragKey] += g.theta
			}
			// In keyword order, not map order: the records' order decides
			// INT-Cnsd's input splits, and with them its shuffle volume.
			kws := make([]string, 0, len(counts))
			for kw := range counts {
				kws = append(kws, kw)
			}
			slices.Sort(kws)
			for _, kw := range kws {
				var blob []byte
				for _, fk := range fragOrder {
					blob = appendPosting(blob, fk, counts[kw]*fragTheta[fk])
				}
				emit(mapreduce.KV{Key: keywordKeyPrefix + kw, Value: blob})
			}
			for _, fk := range fragOrder {
				emit(mapreduce.KV{
					Key:   sizeKeyPrefix + fk,
					Value: binary.AppendUvarint(nil, uint64(total*fragTheta[fk])),
				})
			}
			return nil
		},
	}
	opts.apply(&job)
	return mapreduce.Run(ctx, job)
}

// Package mapreduce is a small in-process MapReduce engine in the style of
// Dean & Ghemawat (OSDI'04), the execution substrate for Dash's database
// crawling and fragment indexing algorithms (paper §V).
//
// A Job runs in two phases. In the map phase, input (key,value) pairs are
// split across parallel map tasks; each task's emitted pairs are hash
// partitioned across reduce tasks. In the reduce phase, each partition's
// pairs are grouped by key and the groups passed to the reducer in key
// order, each key's values in map-task order, then emit order. An optional
// combiner pre-aggregates each map task's output before shuffle, grouped
// the same way; the order in which it emits is free, since the shuffle
// regroups whatever it emits.
//
// The paper ran on a 4-node Hadoop cluster; here tasks are goroutines and
// the shuffle is an in-memory exchange. The engine still materializes and
// byte-serializes every intermediate pair, so the quantity that dominated
// the paper's cluster costs — bytes shuffled between phases — dominates
// here too, and per-phase Metrics expose it.
package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"sync"
	"time"
)

// ErrNoJob is returned when a job is missing its map or reduce function.
var ErrNoJob = errors.New("mapreduce: job needs both Map and Reduce functions")

// KV is one key-value pair. Values are opaque bytes; keys are the shuffle
// unit.
type KV struct {
	Key   string
	Value []byte
}

// Emit passes a pair to the framework.
type Emit func(KV)

// Mapper transforms one input pair into any number of intermediate pairs.
type Mapper func(in KV, emit Emit) error

// Reducer folds all values of one key into any number of output pairs.
// Values arrive in deterministic order (map-task order, then emit order).
type Reducer func(key string, values [][]byte, emit Emit) error

// Job describes one MapReduce execution.
type Job struct {
	Name    string
	Input   []KV
	Map     Mapper
	Reduce  Reducer
	Combine Reducer // optional per-map-task pre-aggregation

	// MapTasks and ReduceTasks bound phase parallelism; both default to
	// Parallelism, which defaults to GOMAXPROCS.
	MapTasks    int
	ReduceTasks int
	Parallelism int
}

// Metrics reports what a job moved and how long each phase took. Intermediate
// counts are measured after combining — they are the shuffle volume.
type Metrics struct {
	Job                 string
	MapInputRecords     int64
	MapInputBytes       int64
	IntermediateRecords int64
	IntermediateBytes   int64
	OutputRecords       int64
	OutputBytes         int64
	MapWall             time.Duration
	ReduceWall          time.Duration
	Wall                time.Duration
}

// Add accumulates other into m (the Job name of m is kept).
func (m *Metrics) Add(other Metrics) {
	m.MapInputRecords += other.MapInputRecords
	m.MapInputBytes += other.MapInputBytes
	m.IntermediateRecords += other.IntermediateRecords
	m.IntermediateBytes += other.IntermediateBytes
	m.OutputRecords += other.OutputRecords
	m.OutputBytes += other.OutputBytes
	m.MapWall += other.MapWall
	m.ReduceWall += other.ReduceWall
	m.Wall += other.Wall
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: in=%d rec/%d B, shuffle=%d rec/%d B, out=%d rec/%d B, wall=%v",
		m.Job, m.MapInputRecords, m.MapInputBytes,
		m.IntermediateRecords, m.IntermediateBytes,
		m.OutputRecords, m.OutputBytes, m.Wall)
}

// Result is a completed job's output and metrics. Output pairs are ordered
// by reduce partition, then key.
type Result struct {
	Output  []KV
	Metrics Metrics
}

// Run executes the job. It returns the first task error encountered;
// in-flight tasks are cancelled through ctx.
func Run(ctx context.Context, job Job) (*Result, error) {
	if job.Map == nil || job.Reduce == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoJob, job.Name)
	}
	par := job.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	mapTasks := job.MapTasks
	if mapTasks <= 0 {
		mapTasks = par
	}
	reduceTasks := job.ReduceTasks
	if reduceTasks <= 0 {
		reduceTasks = par
	}

	metrics := Metrics{Job: job.Name}
	start := time.Now()

	// ---- Map phase ----
	mapStart := time.Now()
	splits := splitInput(job.Input, mapTasks)
	// buckets[t][r] holds map task t's output for reduce partition r.
	buckets := make([][][]KV, len(splits))
	mapErr := runTasks(ctx, par, len(splits), func(t int) error {
		out := make([][]KV, reduceTasks)
		emit := func(kv KV) {
			r := partition(kv.Key, reduceTasks)
			out[r] = append(out[r], kv)
		}
		for _, kv := range splits[t] {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := job.Map(kv, emit); err != nil {
				return fmt.Errorf("mapreduce: %s: map task %d: %w", job.Name, t, err)
			}
		}
		if job.Combine != nil {
			for r := range out {
				combined, err := combinePartition(job.Combine, out[r])
				if err != nil {
					return fmt.Errorf("mapreduce: %s: combine task %d: %w", job.Name, t, err)
				}
				out[r] = combined
			}
		}
		buckets[t] = out
		return nil
	})
	if mapErr != nil {
		return nil, mapErr
	}
	metrics.MapWall = time.Since(mapStart)
	for _, kv := range job.Input {
		metrics.MapInputRecords++
		metrics.MapInputBytes += int64(len(kv.Key) + len(kv.Value))
	}

	// ---- Shuffle: gather each partition in deterministic task order ----
	parts := make([][]KV, reduceTasks)
	for r := 0; r < reduceTasks; r++ {
		n := 0
		for t := range buckets {
			n += len(buckets[t][r])
		}
		part := make([]KV, 0, n)
		for t := range buckets {
			part = append(part, buckets[t][r]...)
		}
		parts[r] = part
		for _, kv := range part {
			metrics.IntermediateRecords++
			metrics.IntermediateBytes += int64(len(kv.Key) + len(kv.Value))
		}
	}

	// ---- Reduce phase ----
	reduceStart := time.Now()
	outputs := make([][]KV, reduceTasks)
	reduceErr := runTasks(ctx, par, reduceTasks, func(r int) error {
		var out []KV
		emit := func(kv KV) { out = append(out, kv) }
		err := groupByKey(parts[r], func(key string, values [][]byte) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := job.Reduce(key, values, emit); err != nil {
				return fmt.Errorf("mapreduce: %s: reduce task %d key %q: %w", job.Name, r, key, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		outputs[r] = out
		return nil
	})
	if reduceErr != nil {
		return nil, reduceErr
	}
	metrics.ReduceWall = time.Since(reduceStart)

	total := 0
	for _, out := range outputs {
		total += len(out)
	}
	final := make([]KV, 0, total)
	for _, out := range outputs {
		final = append(final, out...)
	}
	for _, kv := range final {
		metrics.OutputRecords++
		metrics.OutputBytes += int64(len(kv.Key) + len(kv.Value))
	}
	metrics.Wall = time.Since(start)
	return &Result{Output: final, Metrics: metrics}, nil
}

// combinePartition groups one map task's partition output and runs the
// combiner over each group.
func combinePartition(combine Reducer, part []KV) ([]KV, error) {
	var out []KV
	emit := func(kv KV) { out = append(out, kv) }
	err := groupByKey(part, func(key string, values [][]byte) error { return combine(key, values, emit) })
	return out, err
}

// groupByKey calls fn once per distinct key of part, in key order, with the
// key's values in arrival order. It groups by hashing, so only the distinct
// keys are sorted.
func groupByKey(part []KV, fn func(key string, values [][]byte) error) error {
	groups := make(map[string][][]byte)
	var keys []string
	for _, kv := range part {
		vs, ok := groups[kv.Key]
		if !ok {
			keys = append(keys, kv.Key)
		}
		groups[kv.Key] = append(vs, kv.Value)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if err := fn(k, groups[k]); err != nil {
			return err
		}
	}
	return nil
}

// splitInput partitions input into up to n contiguous splits.
func splitInput(input []KV, n int) [][]KV {
	if len(input) == 0 {
		return nil
	}
	if n > len(input) {
		n = len(input)
	}
	splits := make([][]KV, 0, n)
	size := (len(input) + n - 1) / n
	for start := 0; start < len(input); start += size {
		end := start + size
		if end > len(input) {
			end = len(input)
		}
		splits = append(splits, input[start:end])
	}
	return splits
}

// partition hashes a key onto a reduce task.
func partition(key string, reduceTasks int) int {
	h := fnv.New32a()
	//lint:ignore droppederr hash.Hash.Write is documented to never return an error
	_, _ = h.Write([]byte(key))
	return int(h.Sum32() % uint32(reduceTasks))
}

// runTasks runs n tasks with at most par concurrent goroutines, returning
// the first error. All goroutines are waited for before returning.
func runTasks(ctx context.Context, par, n int, fn func(int) error) error {
	if n == 0 {
		return nil
	}
	if par > n {
		par = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	tasks := make(chan int)
	errOnce := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for t := range tasks {
				if err := fn(t); err != nil {
					select {
					case errOnce <- err:
						cancel()
					default:
					}
					return
				}
			}
		}()
	}
feed:
	for t := 0; t < n; t++ {
		select {
		case tasks <- t:
		case <-ctx.Done():
			break feed
		}
	}
	close(tasks)
	wg.Wait()
	select {
	case err := <-errOnce:
		return err
	default:
		return ctx.Err()
	}
}

package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// wordCountJob is the canonical MR example: count word occurrences across
// documents.
func wordCountJob(docs []string, par int) Job {
	input := make([]KV, len(docs))
	for i, d := range docs {
		input[i] = KV{Key: strconv.Itoa(i), Value: []byte(d)}
	}
	return Job{
		Name:  "wordcount",
		Input: input,
		Map: func(in KV, emit Emit) error {
			for _, w := range strings.Fields(string(in.Value)) {
				emit(KV{Key: strings.ToLower(w), Value: []byte{1}})
			}
			return nil
		},
		Reduce: func(key string, values [][]byte, emit Emit) error {
			n := 0
			for _, v := range values {
				n += int(v[0])
			}
			emit(KV{Key: key, Value: []byte(strconv.Itoa(n))})
			return nil
		},
		Parallelism: par,
	}
}

func countsFrom(res *Result) map[string]int {
	out := make(map[string]int, len(res.Output))
	for _, kv := range res.Output {
		n, _ := strconv.Atoi(string(kv.Value))
		out[kv.Key] = n
	}
	return out
}

func TestWordCount(t *testing.T) {
	docs := []string{
		"Burger experts burger",
		"unique burger",
		"bad fries",
	}
	res, err := Run(context.Background(), wordCountJob(docs, 4))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	got := countsFrom(res)
	want := map[string]int{"burger": 3, "experts": 1, "unique": 1, "bad": 1, "fries": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counts = %v, want %v", got, want)
	}
}

func TestMetricsAccounting(t *testing.T) {
	docs := []string{"a b c", "a a"}
	res, err := Run(context.Background(), wordCountJob(docs, 2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	m := res.Metrics
	if m.MapInputRecords != 2 {
		t.Errorf("MapInputRecords = %d, want 2", m.MapInputRecords)
	}
	if m.IntermediateRecords != 5 { // one pair per word occurrence
		t.Errorf("IntermediateRecords = %d, want 5", m.IntermediateRecords)
	}
	if m.OutputRecords != 3 { // a, b, c
		t.Errorf("OutputRecords = %d, want 3", m.OutputRecords)
	}
	if m.MapInputBytes == 0 || m.IntermediateBytes == 0 || m.OutputBytes == 0 {
		t.Errorf("byte counters should be nonzero: %+v", m)
	}
	if m.Job != "wordcount" {
		t.Errorf("Job = %q", m.Job)
	}
	if !strings.Contains(m.String(), "wordcount") {
		t.Errorf("String() = %q", m.String())
	}
}

func TestCombinerReducesShuffleVolume(t *testing.T) {
	docs := []string{
		strings.Repeat("hot ", 500),
		strings.Repeat("hot cold ", 200),
	}
	plain := wordCountJob(docs, 2)
	plain.MapTasks = 2
	resPlain, err := Run(context.Background(), plain)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	combined := wordCountJob(docs, 2)
	combined.MapTasks = 2
	combined.Combine = func(key string, values [][]byte, emit Emit) error {
		n := 0
		for _, v := range values {
			n += int(v[0])
		}
		// Re-encode partial count as a varint-ish single byte chain:
		// for the test just emit n pairs of weight 1 when n is tiny,
		// otherwise a marker; keep it simple with a decimal string and
		// a reducer that understands both encodings.
		emit(KV{Key: key, Value: []byte("n:" + strconv.Itoa(n))})
		return nil
	}
	combined.Reduce = func(key string, values [][]byte, emit Emit) error {
		n := 0
		for _, v := range values {
			s := string(v)
			if strings.HasPrefix(s, "n:") {
				k, err := strconv.Atoi(s[2:])
				if err != nil {
					return err
				}
				n += k
			} else {
				n += int(v[0])
			}
		}
		emit(KV{Key: key, Value: []byte(strconv.Itoa(n))})
		return nil
	}
	resComb, err := Run(context.Background(), combined)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if !reflect.DeepEqual(countsFrom(resPlain), countsFrom(resComb)) {
		t.Errorf("combiner changed results: %v vs %v", countsFrom(resPlain), countsFrom(resComb))
	}
	if resComb.Metrics.IntermediateRecords >= resPlain.Metrics.IntermediateRecords {
		t.Errorf("combiner did not reduce shuffle: %d >= %d",
			resComb.Metrics.IntermediateRecords, resPlain.Metrics.IntermediateRecords)
	}
}

func TestMissingFunctions(t *testing.T) {
	if _, err := Run(context.Background(), Job{Name: "x"}); !errors.Is(err, ErrNoJob) {
		t.Errorf("err = %v, want ErrNoJob", err)
	}
}

func TestEmptyInput(t *testing.T) {
	res, err := Run(context.Background(), wordCountJob(nil, 2))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Output) != 0 {
		t.Errorf("output = %v, want empty", res.Output)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	wantErr := errors.New("boom")
	job := Job{
		Name:  "failing-map",
		Input: []KV{{Key: "a"}, {Key: "b"}, {Key: "c"}, {Key: "d"}},
		Map: func(in KV, emit Emit) error {
			if in.Key == "c" {
				return wantErr
			}
			emit(in)
			return nil
		},
		Reduce:      func(key string, values [][]byte, emit Emit) error { return nil },
		MapTasks:    4,
		Parallelism: 4,
	}
	_, err := Run(context.Background(), job)
	if !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
	if err != nil && !strings.Contains(err.Error(), "failing-map") {
		t.Errorf("error should name the job: %v", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	wantErr := errors.New("kaput")
	job := wordCountJob([]string{"a b c d e f"}, 4)
	job.Reduce = func(key string, values [][]byte, emit Emit) error {
		if key == "d" {
			return wantErr
		}
		return nil
	}
	if _, err := Run(context.Background(), job); !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want wrapped kaput", err)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, wordCountJob([]string{"a b", "c d"}, 2))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	docs := make([]string, 50)
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < r.Intn(20); j++ {
			sb.WriteString(words[r.Intn(len(words))])
			sb.WriteByte(' ')
		}
		docs[i] = sb.String()
	}
	var base map[string]int
	for _, par := range []int{1, 2, 3, 8} {
		job := wordCountJob(docs, par)
		job.MapTasks = par
		job.ReduceTasks = par
		res, err := Run(context.Background(), job)
		if err != nil {
			t.Fatalf("Run(par=%d): %v", par, err)
		}
		got := countsFrom(res)
		if base == nil {
			base = got
			continue
		}
		if !reflect.DeepEqual(got, base) {
			t.Errorf("par=%d results differ: %v vs %v", par, got, base)
		}
	}
}

func TestReduceValuesOrderDeterministic(t *testing.T) {
	// Values for one key must arrive in map-task order then emit order,
	// independent of scheduling, with a combiner and without one. Every
	// key is emitted by all five map tasks, interleaved with the others.
	input := make([]KV, 20)
	for i := range input {
		input[i] = KV{Key: strconv.Itoa(i), Value: []byte(strconv.Itoa(i))}
	}
	concat := func(key string, values [][]byte, emit Emit) error {
		// A reducer may append to its values: the next group's must
		// not change.
		values = append(values, []byte("x"))
		var parts []string
		for _, v := range values[:len(values)-1] {
			parts = append(parts, string(v))
		}
		emit(KV{Key: key, Value: []byte(strings.Join(parts, ","))})
		return nil
	}
	keyOf := func(i int) string { return []string{"fizz", "rest", "rest"}[i%3] }
	// Within a split, input order is preserved; splits are contiguous,
	// so the overall order is the input order.
	want := make(map[string]string)
	for i := range input {
		for _, k := range []string{"all", keyOf(i)} {
			if want[k] != "" {
				want[k] += ","
			}
			want[k] += strconv.Itoa(i)
		}
	}
	for _, combine := range []Reducer{nil, concat} {
		job := Job{
			Name:  "order",
			Input: input,
			Map: func(in KV, emit Emit) error {
				i, _ := strconv.Atoi(in.Key)
				emit(KV{Key: "all", Value: in.Value})
				emit(KV{Key: keyOf(i), Value: in.Value})
				return nil
			},
			Combine:     combine,
			Reduce:      concat,
			MapTasks:    5,
			ReduceTasks: 3,
			Parallelism: 5,
		}
		for trial := 0; trial < 5; trial++ {
			res, err := Run(context.Background(), job)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got := make(map[string]string)
			for _, kv := range res.Output {
				got[kv.Key] = string(kv.Value)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("combiner %v, trial %d: values = %v, want %v", combine != nil, trial, got, want)
			}
		}
	}
}

func TestSplitInput(t *testing.T) {
	input := make([]KV, 10)
	for i := range input {
		input[i] = KV{Key: strconv.Itoa(i)}
	}
	splits := splitInput(input, 3)
	if len(splits) != 3 {
		t.Fatalf("splits = %d, want 3", len(splits))
	}
	total := 0
	for _, s := range splits {
		total += len(s)
	}
	if total != 10 {
		t.Errorf("split total = %d, want 10", total)
	}
	if got := splitInput(input, 100); len(got) != 10 {
		t.Errorf("oversplit = %d, want 10", len(got))
	}
	if got := splitInput(nil, 4); got != nil {
		t.Errorf("splitInput(nil) = %v", got)
	}
}

func TestPartitionStableAndInRange(t *testing.T) {
	f := func(key string) bool {
		p := partition(key, 7)
		return p >= 0 && p < 7 && p == partition(key, 7)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropMRWordCountMatchesSequential cross-checks the engine against a
// directly computed word count on random documents.
func TestPropMRWordCountMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		words := []string{"w0", "w1", "w2", "w3", "w4"}
		docs := make([]string, r.Intn(20))
		want := make(map[string]int)
		for i := range docs {
			var sb strings.Builder
			for j := 0; j < r.Intn(15); j++ {
				w := words[r.Intn(len(words))]
				want[w]++
				sb.WriteString(w + " ")
			}
			docs[i] = sb.String()
		}
		job := wordCountJob(docs, 1+r.Intn(4))
		job.MapTasks = 1 + r.Intn(4)
		job.ReduceTasks = 1 + r.Intn(4)
		res, err := Run(context.Background(), job)
		if err != nil {
			return false
		}
		got := countsFrom(res)
		if len(got) != len(want) {
			return false
		}
		for k, v := range want {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestOutputSortedWithinPartition(t *testing.T) {
	// Output is ordered by (partition, key). The words repeat across
	// all map tasks, so each partition's groups gather from every task.
	docs := []string{"e d c b a", "b d f", "a f e", "f a b", "c c e"}
	want := map[string]int{"a": 3, "b": 3, "c": 3, "d": 2, "e": 3, "f": 3}
	for _, combined := range []bool{false, true} {
		for _, reduceTasks := range []int{1, 3} {
			job := wordCountJob(docs, 2)
			job.MapTasks = len(docs)
			job.ReduceTasks = reduceTasks
			if combined {
				job.Combine = func(key string, values [][]byte, emit Emit) error {
					emit(KV{Key: key, Value: []byte{byte(len(values))}})
					return nil
				}
			}
			res, err := Run(context.Background(), job)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			for i := 1; i < len(res.Output); i++ {
				a, b := res.Output[i-1].Key, res.Output[i].Key
				pa, pb := partition(a, reduceTasks), partition(b, reduceTasks)
				if pa > pb || (pa == pb && a >= b) {
					t.Errorf("combiner %v, %d partitions: %q (partition %d) before %q (partition %d)",
						combined, reduceTasks, a, pa, b, pb)
				}
			}
			if got := countsFrom(res); !reflect.DeepEqual(got, want) {
				t.Errorf("combiner %v, %d partitions: counts = %v, want %v", combined, reduceTasks, got, want)
			}
		}
	}
}

func BenchmarkWordCount(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	words := make([]string, 100)
	for i := range words {
		words[i] = fmt.Sprintf("word%02d", i)
	}
	docs := make([]string, 200)
	for i := range docs {
		var sb strings.Builder
		for j := 0; j < 100; j++ {
			sb.WriteString(words[r.Intn(len(words))] + " ")
		}
		docs[i] = sb.String()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(context.Background(), wordCountJob(docs, 0)); err != nil {
			b.Fatal(err)
		}
	}
}

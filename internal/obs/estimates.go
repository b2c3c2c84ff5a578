package obs

import (
	"math"
	"sync"
	"time"
)

// The estimator accuracy registry: every finished federated query folds its
// (predicted, actual) result sizes in here, so /debug/estimates answers the
// question the ROADMAP's planner work depends on — how wrong is the cost
// model, and in which direction? Errors are tracked as log2 ratios
// (log2((actual+1)/(predicted+1))): 0 means exact, +1 means the estimator
// undershot by 2x, -1 overshot by 2x. The +1 smoothing keeps empty results
// finite.

// Estimate dimensions.
const (
	EstDimSamples = "samples"
	EstDimRegions = "regions"
	EstDimBytes   = "bytes"
)

var estDims = []string{EstDimSamples, EstDimRegions, EstDimBytes}

// estBuckets are the log2-ratio histogram bounds shared by the JSON view and
// the Prometheus histogram: symmetric around 0 so over- and under-estimates
// read off the same scale.
var estBuckets = []float64{-6, -4, -2, -1, -0.5, 0, 0.5, 1, 2, 4, 6}

var (
	metricEstQueries = defaultRegistry.Counter("genogo_estimate_queries_total",
		"Federated queries whose result size was compared against the planner's estimate.")
	metricEstErr = defaultRegistry.HistogramVec("genogo_estimate_log2_error",
		"Estimator log2 ratio error log2((actual+1)/(predicted+1)) per dimension; 0 is exact, positive means the estimator undershot.",
		estBuckets, "dim")
)

// EstimateObs is one (predicted, actual) observation from a finished query.
type EstimateObs struct {
	Query string    `json:"query,omitempty"`
	Var   string    `json:"var,omitempty"`
	At    time.Time `json:"at"`
	// Predicted and Actual are keyed by dimension (samples, regions, bytes).
	Predicted map[string]int64 `json:"predicted"`
	Actual    map[string]int64 `json:"actual"`
	// Log2Err is the per-dimension log2 ratio error.
	Log2Err map[string]float64 `json:"log2_err"`
}

// estDimStats accumulates one dimension's error distribution.
type estDimStats struct {
	count   int64
	sum     float64 // sum of log2 errors (signed: mean is the bias)
	sumAbs  float64 // sum of |log2 error| (mean is the accuracy)
	buckets []int64 // len(estBuckets)+1 counts, last is +Inf overflow
}

// EstDimReport is the JSON view of one dimension's accuracy.
type EstDimReport struct {
	Dim   string `json:"dim"`
	Count int64  `json:"count"`
	// MeanLog2 is the mean signed error: positive means the estimator
	// systematically undershoots this dimension.
	MeanLog2 float64 `json:"mean_log2"`
	// MeanAbsLog2 is the mean error magnitude in doublings: 1.0 means the
	// estimate is off by 2x on average.
	MeanAbsLog2 float64 `json:"mean_abs_log2"`
	// Buckets maps histogram upper bounds (and "+Inf") to counts.
	Buckets []EstBucket `json:"buckets"`
}

// EstBucket is one histogram cell of the accuracy report.
type EstBucket struct {
	LE    string `json:"le"`
	Count int64  `json:"count"`
}

// EstimateReport is the /debug/estimates JSON document.
type EstimateReport struct {
	Queries int64          `json:"queries"`
	Dims    []EstDimReport `json:"dims"`
	Recent  []EstimateObs  `json:"recent"`
}

// EstimateRegistry folds (predicted, actual) pairs into per-dimension error
// distributions plus a ring of recent observations.
type EstimateRegistry struct {
	mu      sync.Mutex
	queries int64
	dims    map[string]*estDimStats
	recent  []EstimateObs // newest first, capped
	cap     int
}

// NewEstimateRegistry returns an empty accuracy registry (tests; production
// code uses the process-wide Estimates()).
func NewEstimateRegistry() *EstimateRegistry {
	return &EstimateRegistry{dims: make(map[string]*estDimStats), cap: 64}
}

var defaultEstimates = NewEstimateRegistry()

// Estimates returns the process-wide estimator accuracy registry.
func Estimates() *EstimateRegistry { return defaultEstimates }

// Log2Ratio is the smoothed error metric: log2((actual+1)/(predicted+1)).
func Log2Ratio(predicted, actual int64) float64 {
	if predicted < 0 {
		predicted = 0
	}
	if actual < 0 {
		actual = 0
	}
	return math.Log2(float64(actual+1) / float64(predicted+1))
}

// Observe folds one query's predicted and actual sizes (keyed by dimension)
// into the registry and the genogo_estimate_* metrics.
func (er *EstimateRegistry) Observe(query, varName string, predicted, actual map[string]int64) {
	obs := EstimateObs{
		Query: query, Var: varName, At: time.Now(),
		Predicted: predicted, Actual: actual,
		Log2Err: make(map[string]float64, len(estDims)),
	}
	er.mu.Lock()
	er.queries++
	for _, dim := range estDims {
		p, pok := predicted[dim]
		a, aok := actual[dim]
		if !pok || !aok {
			continue
		}
		e := Log2Ratio(p, a)
		obs.Log2Err[dim] = e
		ds := er.dims[dim]
		if ds == nil {
			ds = &estDimStats{buckets: make([]int64, len(estBuckets)+1)}
			er.dims[dim] = ds
		}
		ds.count++
		ds.sum += e
		ds.sumAbs += math.Abs(e)
		ds.buckets[bucketIdx(e)]++
		if er == defaultEstimates {
			metricEstErr.With(dim).Observe(e)
		}
	}
	er.recent = append([]EstimateObs{obs}, er.recent...)
	if len(er.recent) > er.cap {
		er.recent = er.recent[:er.cap]
	}
	er.mu.Unlock()
	if er == defaultEstimates {
		metricEstQueries.Inc()
	}
}

func bucketIdx(e float64) int {
	for i, b := range estBuckets {
		if e <= b {
			return i
		}
	}
	return len(estBuckets)
}

// Report snapshots the registry for /debug/estimates.
func (er *EstimateRegistry) Report() EstimateReport {
	er.mu.Lock()
	defer er.mu.Unlock()
	rep := EstimateReport{Queries: er.queries, Dims: []EstDimReport{}, Recent: append([]EstimateObs{}, er.recent...)}
	for _, dim := range estDims {
		ds := er.dims[dim]
		if ds == nil {
			continue
		}
		dr := EstDimReport{Dim: dim, Count: ds.count}
		if ds.count > 0 {
			dr.MeanLog2 = ds.sum / float64(ds.count)
			dr.MeanAbsLog2 = ds.sumAbs / float64(ds.count)
		}
		for i, c := range ds.buckets {
			le := "+Inf"
			if i < len(estBuckets) {
				le = formatFloat(estBuckets[i])
			}
			dr.Buckets = append(dr.Buckets, EstBucket{LE: le, Count: c})
		}
		rep.Dims = append(rep.Dims, dr)
	}
	return rep
}

// Count reports how many queries have been folded in (test hook).
func (er *EstimateRegistry) Count() int64 {
	er.mu.Lock()
	defer er.mu.Unlock()
	return er.queries
}

// View serves the accuracy report on /debug/estimates.
func (er *EstimateRegistry) View() View {
	return View{
		Path: "/debug/estimates",
		Desc: "estimator accuracy: predicted vs actual result sizes per finished federated query",
		List: func() any { return er.Report() },
	}
}

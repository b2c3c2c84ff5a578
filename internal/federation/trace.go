package federation

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"genogo/internal/engine"
	"genogo/internal/gdm"
	"genogo/internal/obs"
)

// callTrace rides the context through one logical call (execute, one chunk
// fetch, release) and back: do() counts every HTTP attempt the resilience
// layer makes into it, so retries show up in federated profiles, and parent
// names the coordinator span the remote execution should hang under
// (shipped as X-Parent-Span).
type callTrace struct {
	attempts int
	parent   string
}

type callTraceKey struct{}

// withCallTrace attaches a call trace for do() to fill.
func withCallTrace(ctx context.Context, ct *callTrace) context.Context {
	return context.WithValue(ctx, callTraceKey{}, ct)
}

// callTraceFrom extracts the call trace, nil when the call is untraced.
func callTraceFrom(ctx context.Context) *callTrace {
	if ctx == nil {
		return nil
	}
	ct, _ := ctx.Value(callTraceKey{}).(*callTrace)
	return ct
}

// memberTrace carries one member attempt's observability state through
// queryNode: the MEMBER span under its LEG (nil when the query is
// unprofiled), the console entry's member slot, and the coordinator span
// reference remote executions hang under.
type memberTrace struct {
	span  *obs.Span       // MEMBER span; nil when unprofiled
	entry *obs.QueryEntry // console entry; nil-safe
	idx   int             // member index in Federator.Clients
	ref   string          // X-Parent-Span value ("" when unprofiled)
	state obs.MemberState // accumulated console view of this member
}

// setStage publishes the member's current stage to the console entry.
func (tr *memberTrace) setStage(stage string) {
	tr.state.Stage = stage
	tr.entry.SetMember(tr.idx, tr.state)
}

// child opens a stage span under the MEMBER span; nil when unprofiled.
func (tr *memberTrace) child(op, detail string) *obs.Span {
	if tr.span == nil {
		return nil
	}
	sp := obs.NewSpan(op)
	sp.Detail = detail
	sp.Mode = "fed"
	tr.span.AddChild(sp)
	return sp
}

// stage runs one stage call with attempt counting: the returned context
// makes do() count attempts and stamp X-Parent-Span, and record transfers
// the retry count (attempts beyond the first) onto the stage span and the
// console state once the call returns.
func (tr *memberTrace) stage(ctx context.Context) (context.Context, func(sp *obs.Span)) {
	ct := &callTrace{parent: tr.ref}
	record := func(sp *obs.Span) {
		if ct.attempts > 1 {
			tr.state.Attempts += ct.attempts - 1
			if sp != nil {
				sp.SetAttr("attempts", strconv.Itoa(ct.attempts))
			}
		}
	}
	return withCallTrace(ctx, ct), record
}

// queryNode runs the script on one member and fetches the staged result.
// Whatever happens after staging succeeds — fetch errors, deadline expiry —
// the staged result is released, so failures never leak the node's limited
// staging slots.
//
// The member trace records each stage: an EXECUTE span (with the member's
// own remote span tree grafted underneath when it returned one), a FETCH
// span whose CHUNK children FetchAll hangs via the context, and a RELEASE
// span; the console entry's member slot tracks the same stages live.
func queryNode(ctx context.Context, c *Client, script, varName string, chunkSize int, tr *memberTrace) (ds *gdm.Dataset, fail *NodeFailure) {
	start := time.Now()
	bytesBefore := c.Bytes()
	defer func() {
		metricMemberLatency.With(c.BaseURL).Observe(time.Since(start).Seconds())
		tr.state.Bytes = c.Bytes() - bytesBefore
		tr.state.Breaker = c.Breaker.State().String()
		if fail != nil {
			metricMemberFailures.With(fail.Stage).Inc()
			tr.state.Err = fail.Err.Error()
			tr.setStage("failed:" + fail.Stage)
			if tr.span != nil {
				tr.span.SetAttr("error", fail.Stage)
			}
		} else {
			tr.setStage("done")
		}
		if tr.span != nil {
			tr.span.SetAttr("breaker", tr.state.Breaker)
			tr.span.SetAttr("bytes", strconv.FormatInt(tr.state.Bytes, 10))
			if tr.state.Attempts > 0 {
				tr.span.SetAttr("retries", strconv.Itoa(tr.state.Attempts))
			}
			if ds != nil {
				tr.span.SetOutput(len(ds.Samples), ds.NumRegions())
			}
			tr.span.Finish(start)
		}
	}()

	tr.setStage("execute")
	execSp := tr.child("EXECUTE", "EXECUTE "+varName)
	ectx, record := tr.stage(ctx)
	execStart := time.Now()
	var qr QueryResponse
	var err error
	if tr.span != nil {
		qr, err = c.ExecuteProfiled(ectx, script, varName)
	} else {
		qr, err = c.Execute(ectx, script, varName)
	}
	record(execSp)
	if err != nil {
		if execSp != nil {
			execSp.SetAttr("error", "execute")
			execSp.Finish(execStart)
		}
		return nil, &NodeFailure{Node: c.BaseURL, Stage: "execute", Err: err}
	}
	if execSp != nil {
		if qr.Profile != nil {
			// Graft the member's own execution tree into the merged profile,
			// flagged remote and labeled with the answering node.
			qr.Profile.MarkRemote()
			qr.Profile.SetAttr("node", c.BaseURL)
			execSp.AddChild(qr.Profile)
		}
		execSp.SetOutput(qr.Samples, qr.Regions)
		execSp.Finish(execStart)
	}
	tr.state.Samples, tr.state.Regions = qr.Samples, qr.Regions

	release := func() {
		relSp := tr.child("RELEASE", "RELEASE "+qr.ResultID)
		relStart := time.Now()
		rctx, record := tr.stage(ctx)
		if ctx.Err() == nil {
			err := c.Release(rctx, qr.ResultID)
			record(relSp)
			if relSp != nil {
				if err != nil {
					relSp.SetAttr("error", "release")
				}
				relSp.Finish(relStart)
			}
			return
		}
		// The query context is already dead; release in the background
		// under its own deadline rather than stalling the caller or
		// leaking the staging slot.
		if relSp != nil {
			relSp.SetAttr("deferred", "true")
			relSp.Finish(relStart)
		}
		go func() {
			bctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), releaseTimeout)
			defer cancel()
			_ = c.Release(bctx, qr.ResultID)
		}()
	}

	tr.setStage("fetch")
	fetchSp := tr.child("FETCH", "FETCH "+qr.ResultID)
	fetchStart := time.Now()
	fctx, _ := tr.stage(ctx) // chunk spans carry their own attempt counts
	fctx = obs.WithSpan(fctx, fetchSp)
	ds, err = c.FetchAll(fctx, qr.ResultID, chunkSize)
	if fetchSp != nil {
		for _, csp := range fetchSp.Children {
			if a := csp.Attr("attempts"); a != "" {
				if n, aerr := strconv.Atoi(a); aerr == nil {
					tr.state.Attempts += n - 1 // first attempt isn't a retry
				}
			}
		}
	}
	if err != nil {
		if fetchSp != nil {
			fetchSp.SetAttr("error", "fetch")
			fetchSp.Finish(fetchStart)
		}
		release()
		return nil, &NodeFailure{Node: c.BaseURL, Stage: "fetch", Err: err}
	}
	if fetchSp != nil {
		fetchSp.SetInput(qr.Samples, qr.Regions)
		fetchSp.SetOutput(len(ds.Samples), ds.NumRegions())
		fetchSp.Finish(fetchStart)
	}
	tr.setStage("release")
	release()
	return ds, nil
}

// run is the federated query path: resolve the legs, fan the script out to
// one replica per leg (runLegs), track each attempt in the query console,
// and merge the surviving legs (mergeLegs). With profile set it additionally
// builds the merged cross-node span tree — a FEDERATED root over PLAN, one
// LEG per replica group holding a MEMBER subtree per attempt (remote
// execution trees grafted in), and the final MERGE — which the EXPLAIN
// ANALYZE renderer prints like any local profile.
func (f *Federator) run(ctx context.Context, script, varName string, chunkSize int, profile bool) (*gdm.Dataset, *obs.Span, *PartialFailure, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, qid := obs.EnsureQueryID(ctx)
	if f.Policy.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.Policy.Deadline)
		defer cancel()
	}
	began := time.Now()

	groups, err := f.legGroups()
	if err != nil {
		return nil, nil, nil, err
	}

	entry := f.queries().Begin(qid, "federator", varName, script)
	nodes := make([]string, len(f.Clients))
	for i, c := range f.Clients {
		nodes[i] = c.BaseURL
	}
	entry.InitMembers(nodes)

	var root *obs.Span
	if profile {
		root = obs.NewSpan("FEDERATED")
		root.Detail = fmt.Sprintf("FEDERATED %s (%d members)", varName, len(f.Clients))
		root.Mode = "fed"
		entry.SetRoot(root)

		planStart := time.Now()
		planSp := obs.NewSpan("PLAN")
		planSp.Detail = fmt.Sprintf("PLAN %s digest=%s", varName, obs.ScriptDigest(script))
		planSp.Mode = "fed"
		root.AddChild(planSp)
		planSp.SetAttr("legs", strconv.Itoa(len(groups)))
		planSp.SetOutput(len(f.Clients), 0)
		planSp.Finish(planStart)
	}

	results := f.runLegs(ctx, script, varName, chunkSize, qid, entry, root, groups)

	finish := func(status obs.QueryStatus, err error) {
		errText := ""
		if err != nil {
			errText = err.Error()
		}
		if root != nil {
			root.Finish(began)
		}
		f.queries().Finish(entry, status, errText)
	}

	mergeStart := time.Now()
	var mergeSp *obs.Span
	if root != nil {
		mergeSp = obs.NewSpan("MERGE")
		mergeSp.Detail = fmt.Sprintf("MERGE %s (sample union)", varName)
		mergeSp.Mode = "fed"
		root.AddChild(mergeSp)
	}
	var report *PartialFailure
	parts := make([]*gdm.Dataset, len(results))
	successes, sIn, rIn := 0, 0, 0
	for i, r := range results {
		if r.ds == nil {
			if report == nil {
				report = &PartialFailure{QueryID: qid}
			}
			report.Failed = append(report.Failed, r.legFailure())
			continue
		}
		successes++
		parts[i] = r.ds
		sIn += len(r.ds.Samples)
		rIn += r.ds.NumRegions()
	}
	merged, collapsed, err := mergeLegs(engine.Config{}, groups, parts)
	if err != nil {
		if mergeSp != nil {
			mergeSp.SetAttr("error", "merge")
			mergeSp.Finish(mergeStart)
		}
		finish(obs.StatusFailed, err)
		return nil, root, report, err
	}
	if collapsed > 0 {
		metricDedupSamples.Add(int64(collapsed))
	}
	if mergeSp != nil {
		mergeSp.SetInput(sIn, rIn)
		if collapsed > 0 {
			mergeSp.SetAttr("dedup", strconv.Itoa(collapsed))
		}
		if merged != nil {
			mergeSp.SetOutput(len(merged.Samples), merged.NumRegions())
		}
		mergeSp.Finish(mergeStart)
	}
	if root != nil && merged != nil {
		root.SetOutput(len(merged.Samples), merged.NumRegions())
	}

	if report == nil {
		finish(obs.StatusDone, nil)
		return merged, root, nil, nil
	}
	metricPartialFailures.Inc()
	if !f.Policy.AllowPartial {
		err := fmt.Errorf("federated query aborted: %w", report)
		finish(obs.StatusFailed, err)
		return nil, root, report, err
	}
	if successes < f.Policy.quorum() {
		err := fmt.Errorf("federated query below quorum (%d/%d legs answered): %w",
			successes, len(results), report)
		finish(obs.StatusFailed, err)
		return nil, root, report, err
	}
	finish(obs.StatusPartial, report)
	return merged, root, report, nil
}

// runLegs fans out one leg per replica group, each with failover and
// (optionally) hedging inside the group.
func (f *Federator) runLegs(ctx context.Context, script, varName string, chunkSize int, qid string, entry *obs.QueryEntry, root *obs.Span, groups []ReplicaGroup) []legResult {
	legs := make([]*legTrace, len(groups))
	for i, g := range groups {
		legs[i] = &legTrace{entry: entry, qid: qid, group: g}
		if root != nil {
			legSp := obs.NewSpan("LEG")
			legSp.Detail = "LEG " + g.Key
			if len(g.Units) > 0 {
				legSp.Detail += " [" + strings.Join(g.Units, ",") + "]"
			}
			legSp.Detail += fmt.Sprintf(" x%d", len(g.Members))
			legSp.Mode = "fed"
			root.AddChild(legSp)
			legs[i].legSp = legSp
		}
	}
	results := make([]legResult, len(groups))
	var wg sync.WaitGroup
	for i := range groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started := time.Now()
			results[i] = f.runLeg(ctx, script, varName, chunkSize, legs[i])
			if legs[i].legSp != nil {
				if ds := results[i].ds; ds != nil {
					legs[i].legSp.SetOutput(len(ds.Samples), ds.NumRegions())
				}
				legs[i].legSp.SetAttr("attempts", strconv.Itoa(legs[i].attempts))
				legs[i].legSp.Finish(started)
			}
		}(i)
	}
	wg.Wait()
	return results
}

// QueryProfiled is Query with federated EXPLAIN ANALYZE: it returns the
// merged cross-node span tree alongside the result. The tree's FEDERATED
// root covers coordinator planning, one LEG per replica group with a MEMBER
// subtree per attempt — execute (with the node's own remote profile grafted
// in), chunked fetch, release, each annotated with retry attempts, breaker
// state and bytes moved — and the final merge. Render it with (*obs.Span).Render, exactly like a local
// profile.
func (f *Federator) QueryProfiled(ctx context.Context, script, varName string, chunkSize int) (*gdm.Dataset, *obs.Span, *PartialFailure, error) {
	return f.run(ctx, script, varName, chunkSize, true)
}

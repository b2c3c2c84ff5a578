package catalog

import "genogo/internal/obs"

// View is the repository console over this registry: /debug/repo lists
// every cataloged dataset, /debug/repo/{name} drills into one with its
// per-chromosome totals and full partition table.
func (r *Registry) View() obs.View {
	return obs.View{
		Path: "/debug/repo",
		Desc: "repository catalog: per-dataset statistics with chromosome drill-down",
		List: func() any {
			return struct {
				Datasets []DatasetSummary `json:"datasets"`
			}{r.Snapshot()}
		},
		Drill: func(name string) (any, bool) { return r.Detail(name) },
	}
}

package experiments

import (
	"fmt"

	"ceer/internal/ops"
	"ceer/internal/textutil"
	"ceer/internal/zoo"
)

// ExtFoldRow reports one CNN's signature-fold statistics.
type ExtFoldRow struct {
	CNN string
	// Nodes is the DAG node count; Classes the unique (signature, phase)
	// count; Ratio = Classes / Nodes.
	Nodes   int
	Classes int
	Ratio   float64
	// HeavyNodes and HeavyClasses restrict the same counts to heavy-GPU
	// ops — the ones whose regression evaluations the fold saves.
	HeavyNodes   int
	HeavyClasses int
}

// ExtFoldResult quantifies the redundancy the compiled tables exploit
// (DESIGN.md "Serving-path performance"): CNN DAGs repeat identical
// modules, so unique op classes are a small fraction of nodes, and
// compile cost scales with the former.
type ExtFoldResult struct {
	Rows []ExtFoldRow
}

// ExtFold folds every zoo CNN and tabulates class-vs-node counts.
func ExtFold(c *Context) (*ExtFoldResult, error) {
	res := &ExtFoldResult{}
	for _, name := range zoo.Names() {
		g, err := c.Graph(name)
		if err != nil {
			return nil, err
		}
		f := g.Fold()
		row := ExtFoldRow{
			CNN:     name,
			Nodes:   g.Len(),
			Classes: f.Len(),
			Ratio:   float64(f.Len()) / float64(g.Len()),
		}
		entries := f.Entries()
		for i := range entries {
			e := &entries[i]
			if c.Pred.Class.Of(e.Rep.Op.Type) == ops.HeavyGPU {
				row.HeavyClasses++
				row.HeavyNodes += e.Count
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the fold statistics.
func (r *ExtFoldResult) Table() *textutil.Table {
	t := &textutil.Table{
		Title:  "Ext. — Op-signature folding (unique classes vs. DAG nodes)",
		Header: []string{"CNN", "nodes", "classes", "ratio", "heavy nodes", "heavy classes"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.CNN, fmt.Sprintf("%d", row.Nodes), fmt.Sprintf("%d", row.Classes),
			fmt.Sprintf("%.2f", row.Ratio),
			fmt.Sprintf("%d", row.HeavyNodes), fmt.Sprintf("%d", row.HeavyClasses))
	}
	t.AddNote("the compiled tables evaluate one regression per heavy class and device,")
	t.AddNote("not per node, once per model generation; see BENCH_predict.json")
	return t
}

package dag

import (
	"encoding/json"
	"fmt"
	"io"
)

// GraphJSON is the wire form of a Graph: plain data that encoding/json
// fills in one pass. Build validates it into a Graph. Decoders that embed
// a graph in a larger document (a problem instance, a service request)
// decode into GraphJSON directly, so the graph's bytes are decoded once.
type GraphJSON struct {
	Name  string     `json:"name,omitempty"`
	Tasks []TaskJSON `json:"tasks"`
	Edges []EdgeJSON `json:"edges"`
}

// TaskJSON is one task of a GraphJSON.
type TaskJSON struct {
	ID     TaskID  `json:"id"`
	Name   string  `json:"name,omitempty"`
	Weight float64 `json:"weight"`
}

// EdgeJSON is one edge of a GraphJSON.
type EdgeJSON struct {
	From TaskID  `json:"from"`
	To   TaskID  `json:"to"`
	Data float64 `json:"data"`
}

// Build validates the wire form and returns the Graph. Task ids must be
// dense 0..n-1 and listed in id order.
func (jg *GraphJSON) Build() (*Graph, error) {
	b := &Builder{name: jg.Name, tasks: make([]Task, 0, len(jg.Tasks)), edges: make([]Edge, 0, len(jg.Edges))}
	for i, t := range jg.Tasks {
		if int(t.ID) != i {
			return nil, fmt.Errorf("dag: task ids must be dense and ordered; got id %d at index %d", t.ID, i)
		}
		b.AddTask(t.Name, t.Weight)
	}
	for _, e := range jg.Edges {
		b.AddEdge(e.From, e.To, e.Data)
	}
	return b.Build()
}

// JSON returns the graph's wire form, tasks in id order and edges in
// (From, To) order.
func (g *Graph) JSON() *GraphJSON {
	jg := &GraphJSON{Name: g.name}
	for _, t := range g.tasks {
		jg.Tasks = append(jg.Tasks, TaskJSON{ID: t.ID, Name: t.Name, Weight: t.Weight})
	}
	for _, e := range g.Edges() {
		jg.Edges = append(jg.Edges, EdgeJSON{From: e.From, To: e.To, Data: e.Data})
	}
	return jg
}

// MarshalJSON encodes the graph as {name, tasks, edges}.
func (g *Graph) MarshalJSON() ([]byte, error) { return json.Marshal(g.JSON()) }

// UnmarshalJSON decodes and re-validates a graph (see GraphJSON.Build).
func (g *Graph) UnmarshalJSON(data []byte) error {
	var jg GraphJSON
	if err := json.Unmarshal(data, &jg); err != nil {
		return fmt.Errorf("dag: decoding graph: %w", err)
	}
	built, err := jg.Build()
	if err != nil {
		return err
	}
	g.replaceWith(built)
	return nil
}

// WriteJSON writes the graph as indented JSON.
func (g *Graph) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(g)
}

// ReadJSON reads a graph produced by WriteJSON.
func ReadJSON(r io.Reader) (*Graph, error) {
	var jg GraphJSON
	if err := json.NewDecoder(r).Decode(&jg); err != nil {
		return nil, fmt.Errorf("dag: decoding graph: %w", err)
	}
	return jg.Build()
}

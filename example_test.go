package tioga_test

import (
	"fmt"
	"log"

	tioga "repro"
)

// Example builds the paper's Figure 1 program — Add Table, Restrict,
// Project, Viewer — and reports what the default table view renders.
func Example() {
	env, err := tioga.NewSeededEnvironment(200, 24, 42)
	if err != nil {
		log.Fatal(err)
	}
	table, _ := env.AddTable("Stations")
	restrict, _ := env.AddBox("restrict", tioga.Params{"pred": "state = 'LA'"})
	project, _ := env.AddBox("project", tioga.Params{"attrs": "name,state,altitude"})
	if err := env.Connect(table.ID, 0, restrict.ID, 0); err != nil {
		log.Fatal(err)
	}
	if err := env.Connect(restrict.ID, 0, project.ID, 0); err != nil {
		log.Fatal(err)
	}
	v, err := env.AddViewer("Louisiana", project.ID, 0, 640, 480)
	if err != nil {
		log.Fatal(err)
	}
	if err := v.PanTo(0, 150, -245); err != nil {
		log.Fatal(err)
	}
	if err := v.SetElevation(0, 260); err != nil {
		log.Fatal(err)
	}
	_, stats, err := v.Render()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rendered %d Louisiana stations in the default table view\n", stats.DisplaysEvaled)
	// Output:
	// rendered 50 Louisiana stations in the default table view
}

// ExampleEnvironment_Undo shows the undo button: every operation of the
// catalog is reversible.
func ExampleEnvironment_Undo() {
	env, err := tioga.NewSeededEnvironment(100, 12, 1)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := env.AddTable("Stations"); err != nil {
		log.Fatal(err)
	}
	if _, err := env.AddBox("sample", tioga.Params{"p": "0.5"}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("boxes:", len(env.Program.Boxes()))
	if err := env.Undo(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("after undo:", len(env.Program.Boxes()))
	// Output:
	// boxes: 2
	// after undo: 1
}

// ExampleParseExpr shows the substrate expression language used for
// Restrict predicates and Add Attribute definitions.
func ExampleParseExpr() {
	n, err := tioga.ParseExpr("year(obs_date) < 1990 and temperature > 20.0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(n)
	// Output:
	// ((year(obs_date) < 1990) and (temperature > 20.0))
}

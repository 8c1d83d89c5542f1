package ast

// Visitor is invoked by Walk for each node. A false return prunes the
// subtree below the node.
type Visitor func(Node) bool

// Walk traverses the tree rooted at n in depth-first source order.
func Walk(n Node, v Visitor) {
	if n == nil || !v(n) {
		return
	}
	switch x := n.(type) {
	case *Program:
		for _, u := range x.Uses {
			Walk(u, v)
		}
		for _, s := range x.Body {
			Walk(s, v)
		}
		for _, f := range x.Funcs {
			Walk(f, v)
		}
	case *Decl:
		Walk(x.Size, v)
		Walk(x.Init, v)
	case *Assign:
		Walk(x.Target, v)
		Walk(x.Value, v)
	case *CastStmt:
		Walk(x.Target, v)
	case *Visible:
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *Gimmeh:
		Walk(x.Target, v)
	case *ExprStmt:
		Walk(x.X, v)
	case *If:
		walkStmts(x.Then, v)
		for _, m := range x.Mebbes {
			Walk(m.Cond, v)
			walkStmts(m.Body, v)
		}
		walkStmts(x.Else, v)
	case *Switch:
		for _, c := range x.Cases {
			Walk(c.Lit, v)
			walkStmts(c.Body, v)
		}
		walkStmts(x.Default, v)
	case *Loop:
		Walk(x.Cond, v)
		walkStmts(x.Body, v)
	case *FoundYr:
		Walk(x.X, v)
	case *FuncDecl:
		walkStmts(x.Body, v)
	case *Lock:
		Walk(x.Var, v)
	case *TxtStmt:
		Walk(x.Target, v)
		Walk(x.Stmt, v)
	case *TxtBlock:
		Walk(x.Target, v)
		walkStmts(x.Body, v)
	case *Index:
		Walk(x.Arr, v)
		Walk(x.IndexE, v)
	case *BinExpr:
		Walk(x.X, v)
		Walk(x.Y, v)
	case *UnExpr:
		Walk(x.X, v)
	case *NaryExpr:
		for _, o := range x.Operands {
			Walk(o, v)
		}
	case *CastExpr:
		Walk(x.X, v)
	case *Call:
		for _, a := range x.Args {
			Walk(a, v)
		}
	case *Srs:
		Walk(x.X, v)
	case *YarnLit:
		for _, r := range x.Refs {
			Walk(r, v)
		}
	}
}

func walkStmts(ss []Stmt, v Visitor) {
	for _, s := range ss {
		Walk(s, v)
	}
}

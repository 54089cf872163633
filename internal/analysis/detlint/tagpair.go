package detlint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"

	"columbia/internal/analysis"
)

// Tagpair flags literal message tags that can never match within a package:
// a constant tag that is sent but never received pairs with nobody, and the
// message leaks (at run time the commsan sanitizer reports it as unmatched
// traffic at finalize); a constant tag received but never sent blocks its
// rank forever. The check is per package and purely syntactic on constant
// tags: as soon as a package sends (or receives) through any non-constant
// tag expression — ring steps, per-block offsets — the corresponding
// unmatched reports are suppressed entirely, because the dynamic side could
// supply any value. Tags whose partner legitimately lives in another
// package are silenced with //detlint:allow tagpair <reason>. Test files
// are exempt.
var Tagpair = &analysis.Analyzer{
	Name: "tagpair",
	Doc:  "flag literal send/recv tags that can never match in their package",
	Run:  runTagpair,
}

// tagUse is one constant-tag communication call site.
type tagUse struct {
	pos  token.Pos
	tag  int64
	send bool
}

func runTagpair(pass *analysis.Pass) error {
	var (
		uses                     []tagUse
		sent, recvd              = map[int64]bool{}, map[int64]bool{}
		dynamicSend, dynamicRecv bool
	)
	for _, f := range pass.Files {
		if isTestFile(pass, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			send, tagArg, ok := commCall(pass, call)
			if !ok {
				return true
			}
			tv := pass.TypesInfo.Types[call.Args[tagArg]]
			if tv.Value == nil || tv.Value.Kind() != constant.Int {
				if send {
					dynamicSend = true
				} else {
					dynamicRecv = true
				}
				return true
			}
			tag, exact := constant.Int64Val(tv.Value)
			if !exact {
				return true
			}
			uses = append(uses, tagUse{pos: call.Pos(), tag: tag, send: send})
			if send {
				sent[tag] = true
			} else {
				recvd[tag] = true
			}
			return true
		})
	}
	// Report in source order; reports are one-per-call-site so each can be
	// individually suppressed.
	sort.SliceStable(uses, func(i, j int) bool { return uses[i].pos < uses[j].pos })
	for _, u := range uses {
		switch {
		case u.send && !dynamicRecv && !recvd[u.tag]:
			pass.Reportf(u.pos, "literal tag %d is sent but never received in this package: the message can never match and leaks; pair it with a receive or justify with //detlint:allow tagpair <reason>", u.tag)
		case !u.send && !dynamicSend && !sent[u.tag]:
			pass.Reportf(u.pos, "literal tag %d is received but never sent in this package: the receive can never be satisfied and blocks its rank; pair it with a send or justify with //detlint:allow tagpair <reason>", u.tag)
		}
	}
	return nil
}

// commCall classifies a point-to-point communication method call and
// locates its tag argument: Send/SendBytes(dst, tag, payload),
// Recv/RecvBytes(src, tag), RecvAny(tag). Only methods count — the par
// collectives are package functions and manage their own reserved tags.
func commCall(pass *analysis.Pass, call *ast.CallExpr) (send bool, tagArg int, ok bool) {
	fn := callee(pass.TypesInfo, call)
	if fn == nil || fn.Type() == nil {
		return false, 0, false
	}
	sig, sigOK := fn.Type().(*types.Signature)
	if !sigOK || sig.Recv() == nil {
		return false, 0, false
	}
	switch fn.Name() {
	case "Send", "SendBytes":
		if len(call.Args) == 3 {
			return true, 1, true
		}
	case "Recv", "RecvBytes":
		if len(call.Args) == 2 {
			return false, 1, true
		}
	case "RecvAny":
		if len(call.Args) == 1 {
			return false, 0, true
		}
	}
	return false, 0, false
}

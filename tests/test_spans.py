"""Source positions, frozen: every token's and every AST node's span, and the
line and column of parse errors on a fixed list of malformed inputs.

The digests below were recorded before tokens began to carry offsets and
build their spans on demand, and before the binary-operator parser became one
precedence-climbing loop; they pin the positions those changes must keep.
``every_shape.tjs``'s AST digest was re-recorded once since, when a ``for``
loop's expression init moved from the span of the ``;`` after it to the span
of its own first token; that one node is its only change.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from conftest import fixture_path
from genprog import random_source
from tierslicer.errors import ParseError
from tierslicer.frontend import Lexer, parse

# Every statement kind, every binary level, unary operators, chained
# assignment, postfix chains, literals of each kind, annotations and a @ui block.
EVERY_SHAPE = """\
/* @config a : client */
var top = 1 + 2 * 3 - 4 / 5 % 6;
/* @slice a */
{
  /* @replicated */ var x = !a || b && c == d != e < f > g <= h >= i;
  var y = -(-x) * (x + 1) - -2;
  x = y = x.k[0].m(1, "s", 's')(true)[null] = this;
  /* @reply */ f({k: 1, "q": [2, 3]}, function (p, q) { return p - q - 1; });
  if (x < 1) { y = 2; } else if (x > 2) y = 3; else { { y = 4; } }
  while (x >= 0 && !y) x = x - 1;
  for (var i = 0; i <= 10; i = i + 1) { return; }
  for (x = 1; ; ) {}
  function f(a, b) { return a % b / 2.5 + 0.125; }
  /* @ui */ { <div>{x}</div> }
}
/* @slice b */ /* @client */
{ function g() { return f(1, 2) == f(2, 1); } }
"""

PROGRAMS = {
    **{p.name: p.read_text() for p in sorted(fixture_path(".").glob("*.tjs"))},
    **{f"random-{seed}.tjs": random_source(seed) for seed in range(12)},
    "every_shape.tjs": EVERY_SHAPE,
}


def _span(span) -> tuple:
    return (span.start, span.end, span.line, span.col)


def token_digest(text: str) -> str:
    lexer = Lexer(text)
    rows = [(tok[0], tok[1], _span(lexer.span(tok))) for tok in lexer.tokens()]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def ast_digest(program) -> str:
    """sha256 over (type, span) of every node, annotations included, in
    pre-order over the dataclass fields."""
    rows, stack = [], [program.slices, program.shared_top_level]
    while stack:
        item = stack.pop()
        if isinstance(item, (list, tuple)):
            stack.extend(reversed(item))
        elif dataclasses.is_dataclass(item):
            rows.append((type(item).__name__, _span(item.span)))
            stack.extend(reversed([getattr(item, f.name) for f in dataclasses.fields(item)
                                   if f.name != "span"]))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# (token digest, AST digest) per program.
FROZEN_DIGESTS = {
    'every_shape.tjs': ('cdeb888963fcba832f5087ccc2a05280a0d5e2f0dae181be7e42de119b3b6198',
                       'c680141ab279efb83753fd1d083e7cf15489c15edbbb606992762cdd355fc229'),
    'meetings.tjs': ('5577feeb36ad74dcd7b01c21f10004d5664a8759accfe546f096e70d8b11c060',
                    '9d13c0711f91b0258c2615bfe1e5b437359aeb9233b58b51dd6257dc54a23139'),
    'random-0.tjs': ('a4851e71830e7040bc6fbe997678edf6f348b7953715227c6cf7ce3634f19c8c',
                    '2ae76a78333d900dfc8d53977ba88548a26c7cf8f83c325eb5a45517b4c25302'),
    'random-1.tjs': ('54a19ed0fcc90ddceda885873649ffc63ccb228c7ab775a677d4c4673f67dee5',
                    'ac7be55919e76aef92d96279bf0436bcb9700bd1e257c6f6f5230fc278289cc1'),
    'random-10.tjs': ('2a03abcf015bb776cb791dfb5d1d831ac761e42bc4c26220eee66d9a4359f83e',
                     '7ea1594c04242776db2ed3bea2a6a2c83ad9a9667ef1b263f20057734b1401c5'),
    'random-11.tjs': ('5751e5461962a3354cd3dee96e6594b7382b108e7b116910af7f716455abbf09',
                     'b3f965abd711d73fbdb4afd71a4c01d471e49076b808e52fb4095fb38d5664c8'),
    'random-2.tjs': ('b29f70315275214fcb79b5172dc0525c33f2e5f763d86b1f261b8169dcb11856',
                    '256320764990261cb25bb61d25da108b613d28c73358fed81ccf360fdf9c984d'),
    'random-3.tjs': ('8a2fc6c52108a9ad142cba4ed606eb85f04c2dc0cf96726f443478395462d72a',
                    '99ab8599b9bd8c66a856be0069045d7b3113b6934c6f397077b3508eca95e820'),
    'random-4.tjs': ('bf125701018cb17c743709cb1362e38e5cc02a77e577adc87bc8c10eeb227b9a',
                    'f6c0108c7b4da23a374278e074c8cb248fd1fc6ddc1ec6fecf53e3afa2041d21'),
    'random-5.tjs': ('c1ab99896ef534c89585dd653c78879e6a62a989ff03ec1a82f08b043a7247ba',
                    'f0bd7f903a6868b5055a15caf63e7e3e9952cdd2c10df04e7185d01f0ad3ca7f'),
    'random-6.tjs': ('072a5e8dc5a79bd749f28b04f4f7cbb2a9a25b4ee18c4e33e97076806feca208',
                    'dc7fb97e597b13e929fa7644d6103d85bf9812ec77c8eb1878949adced5a5508'),
    'random-7.tjs': ('23505932b6a004a7510746a75eaf1a79eb5f21814afe6ec9cddac4131c651e00',
                    '0790a6e97fb1f029c281159e97674249dc5acb4cd2187a39843c9f4f590cfe2e'),
    'random-8.tjs': ('3e8fdfc1a3a1198717d849f237b5c11bd8f329ef937ab472cd173cdbc1900cc6',
                    '62054056356893677c805b35ba58b674ed98d63a392a9bc909f7aeee5c0ba290'),
    'random-9.tjs': ('311ed05be3013ef566258ed02202617bef9a18eeea2a36255df69c546376e032',
                    '1f04c114e349e27994e7923cc3dd4ce785063e0b15ac22f140a285215f4c2d74'),
    'relay.tjs': ('b6739670f7483b002b2075139af51bfca4a11a47e486a14a6ab88e64c802373d',
                 '83aa7d101fd02580c9e830ccfbd8cf4045b33ab63f099525b58794b375b78b57'),
    'relay_reply.tjs': ('2b4a3d0f449e5acfd08e8b4ee75512de7676a0e7554440b256fc3d9c46601a97',
                       '2865cd992c67cd0dce8f98c3a1c37ae05fe6f7c8b6daaad2a164eb0955fdf932'),
    'tracker.tjs': ('b6ec1d8d379ca10c99aa439f8d4e35e9453172acbb2df557fcc079bcbe9bf0bd',
                   '6e31c1284cd34af9a1ef8248536cef14ec0931e7e499b129af13ef318e4213b0'),
    'unicorn_v1.tjs': ('9fcb090ad72425bd383958cc821ba3e6e6fe327c74eb803db46fe75a5bf59b1e',
                      'df45626ae0c3678ebefcd51b848737c003d89392bc044c18bc3d806fa475be2a'),
    'unicorn_v2.tjs': ('5b3d6e49ecdc64a27d130b54a4a091b49280288f4639297db31a86c1b329aee4',
                      '32fe410850a35f88bf4c65445b6c69df5bed07a9537989d089c1ba3b414a93e3'),
    'unicorn_v3.tjs': ('6c98e8f3fbef5247399b2c9c0c93ca4cfe492ed3ab383ce322f866ad2834542c',
                      '9bbddd2c6ce20ff827f2b74559d55c3b70a79cda845ab02bcb290c8fcebc268f'),
    'unicorn_v4.tjs': ('f623ebe569ee7488cedb500341d6acd76abafbf556926c784b2c3315339b4ee0',
                      '0ecc3e6fded899711fe18c73b77588f03591eeb6cf77fb2a5ca288c340cc0925'),
    'unicorn_v5.tjs': ('6de007b085dccc0da0c3a8e1ea669dd47e67592d353d0f8503d89ed9902e5a9d',
                      '244562ca27df40de6cc7d870d477db952000aa7a731d37eaca4c14c14ddaee69'),
    'unicorn_v6.tjs': ('d6e489e3ab1eb694d77d8b45e88eb4b5f6fa34b98e1a7b45f75864d85234de1f',
                      'bbfdfc1306640883ebe3b94be247ae8cd41d209a092a3c61f336e1eeb32bcd07'),
}

# (source, message, line, col) of the ParseError each malformed input raises.
FROZEN_ERRORS = [
    ("var s = 'abc;",
     'unterminated string', 1, 9),
    ('/* @slice a */\n{ var s = "a\\"b; }',
     'unterminated string', 2, 11),
    ('/* @slice a */\n{ /* never closed }',
     'unterminated comment', 2, 3),
    ('var x = 1 # 2;',
     "unexpected character '#'", 1, 11),
    ('var x = ²;',
     "unexpected character '²'", 1, 9),
    ('/* @slice a */\n{ var x = 1 }',
     "expected ';', found '}'", 2, 13),
    ('/* @slice a */\n{ var x = 1;',
     "expected '}'", 2, 13),
    ('/* @slice a */\n{\n  f(1) = 2;\n}',
     'invalid assignment target', 3, 10),
    ('/* @slice a */\n{\n  var x = (1 + );\n}',
     "unexpected token ')'", 3, 16),
    ('var n = 1.2.3;',
     "malformed number '1.2.3'", 1, 9),
    ("var n = " + "9" * 400 + ";",
     'number too large for a float', 1, 9),
    ('var 1x = 2;',
     'expected identifier', 1, 5),
    ('var if = 2;',
     'expected identifier', 1, 5),
    ('/* @slice a b */\n{ }',
     '@slice takes exactly one name', 1, 1),
    ('/* @ui */ var x = 1;',
     "expected '{' after @ui annotation", 1, 11),
    ('/* @slice a */ /* @ui */ x',
     "expected '{' after @ui annotation", 1, 26),
    ('/* @slice a */\n/* @ui */ { <p>',
     'unterminated @ui block', 2, 11),
    ('var o = {1: 2};',
     'expected object key', 1, 10),
    ('var o = {a 2};',
     "expected ':', found '2'", 1, 12),
    ('var k = while;',
     "unexpected keyword 'while'", 1, 9),
    ('function (a) { }',
     'expected identifier', 1, 10),
    ('if (x { }',
     "expected ')', found '{'", 1, 7),
    ('for (var i = 0; i < 3 i = i + 1) { }',
     "expected ';', found 'i'", 1, 23),
    ('return',
     "unexpected token 'EOF'", 1, 7),
    ('x.1;',
     'expected identifier', 1, 3),
    ('var a = [1, 2;',
     "expected ',', found ';'", 1, 14),
    ('var a = f(1 2);',
     "expected ',', found '2'", 1, 13),
    ("\r\n\tvar é = 'x'; ; ",
     "unexpected token ';'", 2, 15),
    ('var λ = 1;\nvar 名 = λ +\n  * 2;',
     "unexpected token '*'", 3, 3),
    ('/* @slice a */\n{\r\n  var x = 1;\r\n  x = = 2;\r\n}',
     "unexpected token '='", 4, 7),
    ('{ { { } }',
     "expected '}'", 1, 10),
    ('var x = a[1;',
     "expected ']', found ';'", 1, 12),
    ('var x = -;',
     "unexpected token ';'", 1, 10),
    ('var x = !!;',
     "unexpected token ';'", 1, 11),
    ('var x = a.;',
     'expected identifier', 1, 11),
    ('}',
     "unexpected token '}'", 1, 1),
    ('else { }',
     "unexpected keyword 'else'", 1, 1),
]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_token_and_node_spans_are_frozen(name):
    text = PROGRAMS[name]
    assert (token_digest(text), ast_digest(parse(text, name))) == FROZEN_DIGESTS[name]


@pytest.mark.parametrize("source, message, line, col", FROZEN_ERRORS)
def test_parse_error_positions_are_frozen(source, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(source, "bad.tjs")
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


def test_for_expression_init_starts_at_its_first_token():
    (a,) = parse("/* @slice a */\n{ var xyz; for (x = 1; x < 2; x = x + 1) { } }").slices
    init = a.body[1].init
    assert (init.span.line, init.span.col) == (2, 17)  # the 'x', not the ';' at col 22
    assert init.span.start == init.expr.target.span.start

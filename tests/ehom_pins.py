"""Pinned results of validate_ehom.

For the isomorphism b_to_e(finset-b) -> nat-e at a height, undamaged or
damaged as test_esys._damaged_ehom describes: the lines of the report's
format() and its witnesses in violation order, keyed by (height, damage).
They were recorded while validate_ehom still compared composites through
the flat forms of composites_equal, and any way of comparing them must
give the same.
"""

PINS = {
    (3, None): (
        [
            'PASS functor:arrow-map (checked 10)',
            'PASS functor:object-map (checked 4)',
            'PASS functor:preserves-compose (checked 20)',
            'PASS functor:preserves-identity (checked 4)',
            'PASS preserve-proj (checked 10, skipped 4)',
            'PASS preserve-sub (checked 8)',
            'PASS preserve-weak (checked 10)',
            'PASS term-map (checked 8)',
            'PASS terminal (checked 1)',
        ],
        [],
    ),
    (4, None): (
        [
            'PASS functor:arrow-map (checked 15)',
            'PASS functor:object-map (checked 5)',
            'PASS functor:preserves-compose (checked 35)',
            'PASS functor:preserves-identity (checked 5)',
            'PASS preserve-proj (checked 15, skipped 6)',
            'PASS preserve-sub (checked 17)',
            'PASS preserve-weak (checked 15)',
            'PASS term-map (checked 17)',
            'PASS terminal (checked 1)',
        ],
        [],
    ),
    (5, None): (
        [
            'PASS functor:arrow-map (checked 21)',
            'PASS functor:object-map (checked 6)',
            'PASS functor:preserves-compose (checked 56)',
            'PASS functor:preserves-identity (checked 6)',
            'PASS preserve-proj (checked 21, skipped 9)',
            'PASS preserve-sub (checked 40)',
            'PASS preserve-weak (checked 21)',
            'PASS term-map (checked 40)',
            'PASS terminal (checked 1)',
        ],
        [],
    ),
    (3, 'subst-term'): (
        [
            'PASS functor:arrow-map (checked 10)',
            'PASS functor:object-map (checked 4)',
            'PASS functor:preserves-compose (checked 20)',
            'PASS functor:preserves-identity (checked 4)',
            'PASS preserve-proj (checked 10, skipped 4)',
            "FAIL preserve-sub: witness=('0@0', '0@0>0', '()', 'term', ('3@3>1', '3@3>3', '2@2>2'), '(0)', '[0]', '[1]') ",
            'PASS preserve-weak (checked 10)',
            'PASS term-map (checked 8)',
            'PASS terminal (checked 1)',
        ],
        [
            ('0@0', '0@0>0', '()', 'term', ('3@3>1', '3@3>3', '2@2>2'), '(0)', '[0]', '[1]'),
        ],
    ),
    (4, 'subst-term'): (
        [
            'PASS functor:arrow-map (checked 15)',
            'PASS functor:object-map (checked 5)',
            'PASS functor:preserves-compose (checked 35)',
            'PASS functor:preserves-identity (checked 5)',
            'PASS preserve-proj (checked 15, skipped 6)',
            "FAIL preserve-sub: witness=('0@0', '0@0>0', '()', 'term', ('3@3>1', '3@3>3', '2@2>2'), '(0)', '[0]', '[1]') ",
            'PASS preserve-weak (checked 15)',
            'PASS term-map (checked 17)',
            'PASS terminal (checked 1)',
        ],
        [
            ('0@0', '0@0>0', '()', 'term', ('3@3>1', '3@3>3', '2@2>2'), '(0)', '[0]', '[1]'),
        ],
    ),
    (4, 'hom-term'): (
        [
            'PASS functor:arrow-map (checked 15)',
            'PASS functor:object-map (checked 5)',
            'PASS functor:preserves-compose (checked 35)',
            'PASS functor:preserves-identity (checked 5)',
            "FAIL preserve-proj: witness=('1@1', '2@2>1') H(1_A) = '[0]'",
            "FAIL preserve-sub: witness=('1@1', '2@2>1', '(0)', 'term', ('4@4>1', '4@4>2', '3@3>1'), '(0)', '[1]', '[0]')  (+6 more)",
            "FAIL preserve-weak: witness=('0@0', '1@1>1', 'term', ('2@2>1', '2@2>2', '1@1>1'), '(0)', '[0]', '[1]')  (+7 more)",
            'PASS term-map (checked 17)',
            'PASS terminal (checked 1)',
        ],
        [
            ('1@1', '2@2>1'),
            ('1@1', '2@2>1', '(0)', 'term', ('4@4>1', '4@4>2', '3@3>1'), '(0)', '[1]', '[0]'),
            ('1@1', '2@2>1', '(0)', 'term', ('4@4>1', '4@4>2', '3@3>1'), '(1)', '[1]', '[0]'),
            ('1@1', '2@2>1', '(0)', 'term', ('4@4>1', '4@4>2', '3@3>1'), '(2)', '[0]', '[1]'),
            ('2@2', '3@3>1', '(0)', 'term', ('4@4>1', '4@4>1', '3@3>0'), '(0)', '[1]', '[0]'),
            ('2@2', '3@3>1', '(0)', 'term', ('4@4>1', '4@4>1', '3@3>0'), '(1)', '[0]', '[1]'),
            ('2@2', '3@3>1', '(1)', 'term', ('4@4>1', '4@4>1', '3@3>0'), '(0)', '[1]', '[0]'),
            ('2@2', '3@3>1', '(1)', 'term', ('4@4>1', '4@4>1', '3@3>0'), '(1)', '[0]', '[1]'),
            ('0@0', '1@1>1', 'term', ('2@2>1', '2@2>2', '1@1>1'), '(0)', '[0]', '[1]'),
            ('0@0', '1@1>1', 'term', ('3@3>1', '3@3>3', '2@2>2'), '(0)', '[1]', '[2]'),
            ('0@0', '1@1>1', 'term', ('3@3>1', '3@3>3', '2@2>2'), '(1)', '[2]', '[1]'),
            ('1@1', '2@2>1', 'term', ('2@2>1', '2@2>1', '1@1>0'), '(0)', '[1]', '[0]'),
            ('1@1', '2@2>1', 'term', ('3@3>1', '3@3>2', '2@2>1'), '(0)', '[0]', '[2]'),
            ('1@1', '2@2>1', 'term', ('3@3>1', '3@3>2', '2@2>1'), '(1)', '[2]', '[0]'),
            ('2@2', '3@3>1', 'term', ('3@3>1', '3@3>1', '2@2>0'), '(0)', '[0]', '[1]'),
            ('2@2', '3@3>1', 'term', ('3@3>1', '3@3>1', '2@2>0'), '(1)', '[1]', '[0]'),
        ],
    ),
    (3, 'source-weak'): (
        [
            'PASS functor:arrow-map (checked 10)',
            'PASS functor:object-map (checked 4)',
            'PASS functor:preserves-compose (checked 20)',
            'PASS functor:preserves-identity (checked 4)',
            'PASS preserve-proj (checked 10, skipped 5)',
            'PASS preserve-sub (checked 8)',
            'PASS preserve-weak (checked 10, skipped 1)',
            'PASS term-map (checked 8)',
            'PASS terminal (checked 1)',
        ],
        [],
    ),
    (3, 'target-weak'): (
        [
            'PASS functor:arrow-map (checked 10)',
            'PASS functor:object-map (checked 4)',
            'PASS functor:preserves-compose (checked 20)',
            'PASS functor:preserves-identity (checked 4)',
            'PASS preserve-proj (checked 10, skipped 4)',
            'PASS preserve-sub (checked 8)',
            'PASS preserve-weak (checked 10, skipped 1)',
            'PASS term-map (checked 8)',
            'PASS terminal (checked 1)',
        ],
        [],
    ),
    (3, 'unmapped'): (
        [
            "FAIL functor:arrow-map: witness=('1@1>0', '1>=1') endpoints not preserved (+3 more)",
            "FAIL functor:object-map: witness=('1@1',) unmapped object",
            'PASS functor:preserves-compose (checked 20)',
            'PASS functor:preserves-identity (checked 4, skipped 1)',
            'PASS preserve-proj (checked 10, skipped 4)',
            'PASS preserve-sub (checked 8, skipped 3)',
            'PASS preserve-weak (checked 10, skipped 4)',
            'PASS term-map (checked 8)',
            'PASS terminal (checked 1)',
        ],
        [
            ('1@1>0', '1>=1'),
            ('1@1>1', '1>=0'),
            ('2@2>1', '2>=1'),
            ('3@3>2', '3>=1'),
            ('1@1',),
        ],
    ),
    (4, 'unmapped'): (
        [
            "FAIL functor:arrow-map: witness=('1@1>0', '1>=1') endpoints not preserved (+4 more)",
            "FAIL functor:object-map: witness=('1@1',) unmapped object",
            'PASS functor:preserves-compose (checked 35)',
            'PASS functor:preserves-identity (checked 5, skipped 1)',
            'PASS preserve-proj (checked 15, skipped 6)',
            'PASS preserve-sub (checked 17, skipped 4)',
            'PASS preserve-weak (checked 15, skipped 5)',
            'PASS term-map (checked 17)',
            'PASS terminal (checked 1)',
        ],
        [
            ('1@1>0', '1>=1'),
            ('1@1>1', '1>=0'),
            ('2@2>1', '2>=1'),
            ('3@3>2', '3>=1'),
            ('4@4>3', '4>=1'),
            ('1@1',),
        ],
    ),
}
